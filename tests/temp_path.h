#ifndef MCSM_TESTS_TEMP_PATH_H_
#define MCSM_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace mcsm {

/// A path under the gtest temp dir that no other test process shares:
/// `<stem>_<pid>_<Suite.Case><ext>`. ctest runs every gtest case as its own
/// process, in parallel under -j, so a fixed file name lets one case
/// truncate the file while another is reading it.
inline std::string UniqueTempPath(const std::string& stem,
                                  const std::string& ext) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? "none"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) + "_" +
         test + ext;
}

}  // namespace mcsm

#endif  // MCSM_TESTS_TEMP_PATH_H_
