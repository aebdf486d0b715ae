#include "tensor/envspec.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"

namespace rp {
namespace {

// Every RP_* knob follows parse-or-exit(2): unrecognized values are usage
// errors, never silent fall-throughs to a default. The throwing parse
// functions are tested directly here; the exit(2) wiring gets a death test
// through the RP_THREADS resolution path and one through RP_SIMD's (that
// knob caches its resolution in a function-local static, so its test
// re-executes the binary for a child that resolves it afresh).

TEST(EnvSpec, ParseIntSpecAcceptsFullMatchInRange) {
  EXPECT_EQ(env::parse_int_spec("RP_X", "4", 1), 4);
  EXPECT_EQ(env::parse_int_spec("RP_X", "1", 1, 1), 1);
  EXPECT_EQ(env::parse_int_spec("RP_X", "-3", -10, 10), -3);
}

TEST(EnvSpec, ParseIntSpecRejectsJunkAndRange) {
  // "4junk" is the motivating bug: atoi happily returned 4.
  for (const char* bad : {"4junk", "", " 4", "4 ", "++4", "0x10", "junk",
                          "999999999999999999999999"}) {
    EXPECT_THROW(env::parse_int_spec("RP_X", bad, 1), std::invalid_argument) << bad;
  }
  EXPECT_THROW(env::parse_int_spec("RP_X", "0", 1), std::invalid_argument);
  EXPECT_THROW(env::parse_int_spec("RP_X", "11", 1, 10), std::invalid_argument);
}

TEST(EnvSpec, SimdSpecParsesAllIsasAndRejectsTypos) {
  simd::Isa isa = simd::Isa::kScalar;
  EXPECT_TRUE(simd::parse_isa_spec("off", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa_spec("scalar", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa_spec("avx2", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx2);
  EXPECT_FALSE(simd::parse_isa_spec("auto", &isa));  // auto = resolver's pick
  for (const char* bad : {"axv2", "AVX2", "on", "", "scalar ", "neon"}) {
    EXPECT_THROW(simd::parse_isa_spec(bad, &isa), std::invalid_argument) << bad;
  }
}

TEST(EnvSpec, SparseSpecParsesAllModesAndRejectsTypos) {
  EXPECT_EQ(sparse::parse_mode_spec("off"), sparse::Mode::kOff);
  EXPECT_EQ(sparse::parse_mode_spec("dense"), sparse::Mode::kOff);
  EXPECT_EQ(sparse::parse_mode_spec("csr"), sparse::Mode::kCsr);
  EXPECT_EQ(sparse::parse_mode_spec("auto"), sparse::Mode::kAuto);
  for (const char* bad : {"csrr", "CSR", "block", "blocked", "", "on"}) {
    EXPECT_THROW(sparse::parse_mode_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(EnvSpecDeathTest, BadRpThreadsExitsLoudlyInsteadOfRunningWithADefault) {
  // set_num_threads(0) re-reads RP_THREADS, so the death-test child walks
  // the real resolution path: strict parse -> die_bad_spec -> exit(2).
  ::setenv("RP_THREADS", "4junk", 1);
  EXPECT_EXIT(parallel::set_num_threads(0), ::testing::ExitedWithCode(2), "RP_THREADS");
  ::unsetenv("RP_THREADS");
  parallel::set_num_threads(0);  // restore the ambient default for later tests
}

TEST(EnvSpec, RpThreadsAcceptsAutoAndExplicitCounts) {
  ::setenv("RP_THREADS", "3", 1);
  parallel::set_num_threads(0);
  EXPECT_EQ(parallel::num_threads(), 3);
  ::setenv("RP_THREADS", "auto", 1);
  parallel::set_num_threads(0);
  EXPECT_GE(parallel::num_threads(), 1);
  ::unsetenv("RP_THREADS");
  parallel::set_num_threads(0);
}

// RP_SIMD is first read by the first conv kernel, usually on a pool worker
// with another lane waiting on the same resolution: the bad value must
// still end the process with exit code 2, not hang or abort in teardown.
TEST(EnvSpecDeathTest, BadRpSimdExitsWithTwoFromInsideTheLanePool) {
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("RP_SIMD", "neon", 1);
  EXPECT_EXIT(
      {
        parallel::set_num_threads(2);
        parallel::run_shards(2, 2, [](int, int64_t, int64_t) { simd::active(); });
      },
      ::testing::ExitedWithCode(2), "RP_SIMD");
  ::unsetenv("RP_SIMD");
  ::testing::GTEST_FLAG(death_test_style) = style;
}

}  // namespace
}  // namespace rp
