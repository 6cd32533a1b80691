//===- tests/TestScratch.h - Per-process scratch directory ------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One scratch directory per test process.  ctest runs every gtest case
/// as its own process, many at once under -j, so a fixed name under
/// testing::TempDir() is shared by sibling cases that overwrite each
/// other's traces, snapshots and captured output.  testScratchDir()
/// mkdtemp()s a directory unique to this process on first use; a global
/// gtest environment removes it, contents included, once the process's
/// tests are done.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TESTS_TESTSCRATCH_H
#define CAFA_TESTS_TESTSCRATCH_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace cafa {

namespace detail {

inline std::string &scratchDirSlot() {
  static std::string Dir;
  return Dir;
}

/// Removes the scratch directory after the last test of the process.
class ScratchDirEnvironment : public testing::Environment {
public:
  void TearDown() override {
    std::string &Dir = scratchDirSlot();
    if (Dir.empty())
      return;
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
    Dir.clear();
  }
};

inline testing::Environment *const ScratchDirCleanup =
    testing::AddGlobalTestEnvironment(new ScratchDirEnvironment);

} // namespace detail

/// This process's private scratch directory under testing::TempDir(),
/// created on first call.  Aborts the test process if mkdtemp fails --
/// a shared fallback would reintroduce the races this exists to stop.
inline const std::string &testScratchDir() {
  std::string &Dir = detail::scratchDirSlot();
  if (Dir.empty()) {
    std::string Base = testing::TempDir();
    if (!Base.empty() && Base.back() != '/')
      Base += '/';
    std::string Template = Base + "cafa_test_XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data()))
      std::abort();
    Dir = Buf.data();
  }
  return Dir;
}

} // namespace cafa

#endif // CAFA_TESTS_TESTSCRATCH_H
