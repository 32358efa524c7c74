#include "src/common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/common/assert.h"

namespace sfs::common {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  SFS_CHECK(!columns_.empty());
}

void Table::AddRow(std::vector<std::string> cells) {
  SFS_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Cell(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Cell(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

std::string Table::Cell(std::size_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

void Table::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };

  print_row(columns_);
  std::size_t total = 0;
  for (std::size_t w : widths) {
    total += w;
  }
  total += 2 * (widths.size() - 1);
  for (std::size_t i = 0; i < total; ++i) {
    os << '-';
  }
  os << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

}  // namespace sfs::common
