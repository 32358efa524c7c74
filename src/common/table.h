// Fixed-width table emitter.
//
// Benchmark binaries print the same rows and series the paper's tables and figures
// report; this helper keeps that output aligned.

#ifndef SFS_COMMON_TABLE_H_
#define SFS_COMMON_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sfs::common {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  // Row cells are preformatted strings; Cell() helpers format numbers consistently.
  void AddRow(std::vector<std::string> cells);

  static std::string Cell(double v, int precision = 2);
  static std::string Cell(std::int64_t v);
  static std::string Cell(std::size_t v);

  // Pretty-prints with aligned columns and a header rule.
  void Print(std::ostream& os) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_TABLE_H_
