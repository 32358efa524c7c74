// gtest parameter names for suites instantiated over scheduler kinds.

#ifndef SFS_TESTS_SCHED_KIND_PARAM_NAME_H_
#define SFS_TESTS_SCHED_KIND_PARAM_NAME_H_

#include <gtest/gtest.h>

#include <string>

#include "src/sched/factory.h"

namespace sfs {

// SchedKindName with '-' mapped to '_', which gtest names may not contain:
// "sharded-sfs" becomes "sharded_sfs".
inline std::string SchedKindParamName(const ::testing::TestParamInfo<sched::SchedKind>& info) {
  std::string name(sched::SchedKindName(info.param));
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

}  // namespace sfs

#endif  // SFS_TESTS_SCHED_KIND_PARAM_NAME_H_
