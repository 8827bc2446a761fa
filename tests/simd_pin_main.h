#ifndef TABREP_TESTS_SIMD_PIN_MAIN_H_
#define TABREP_TESTS_SIMD_PIN_MAIN_H_

// main() for the test binaries that ctest reruns once per kernel tier
// (the TABREP_SIMD matrix in tests/CMakeLists.txt). TABREP_REQUIRE_SIMD
// pins a matrix entry: when the resolved dispatch level cannot honor
// the requested tier (e.g. an avx2 run on a host without AVX2), the
// binary reports a ctest SKIP (exit 77, see SKIP_RETURN_CODE) instead
// of silently testing the fallback tier a second time. Defining main
// here is safe alongside gtest_main: the linker only pulls its archive
// member when main is unresolved. Include once, at the end of a test
// file.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "tensor/kernels.h"

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const char* required = std::getenv("TABREP_REQUIRE_SIMD");
  if (required != nullptr && *required != '\0') {
    const char* active =
        tabrep::kernels::SimdLevelName(tabrep::kernels::ActiveSimdLevel());
    if (std::string(required) != active) {
      std::printf(
          "SKIPPED: TABREP_REQUIRE_SIMD=%s but the active kernel dispatch "
          "level is '%s' (host or build cannot honor the requested tier)\n",
          required, active);
      return 77;
    }
  }
  return RUN_ALL_TESTS();
}

#endif  // TABREP_TESTS_SIMD_PIN_MAIN_H_
