// Unit tests for the common utilities: math helpers, Table, Config,
// aligned storage, error macros.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "rshc/common/aligned.hpp"
#include "rshc/common/config.hpp"
#include "rshc/common/error.hpp"
#include "rshc/common/math.hpp"
#include "rshc/common/table.hpp"
#include "rshc/common/timer.hpp"

namespace {

using namespace rshc;

TEST(Math, SignAndSquares) {
  EXPECT_EQ(sign(3.0), 1.0);
  EXPECT_EQ(sign(-2.5), -1.0);
  EXPECT_EQ(sign(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sq(-3.0), 9.0);
  EXPECT_DOUBLE_EQ(cube(-2.0), -8.0);
}

TEST(Math, MinmodBasics) {
  EXPECT_DOUBLE_EQ(minmod(1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(minmod(-1.0, -3.0), -1.0);
  EXPECT_DOUBLE_EQ(minmod(1.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(minmod(0.0, 5.0), 0.0);
}

TEST(Math, Minmod3TakesSmallestMagnitudeSameSign) {
  EXPECT_DOUBLE_EQ(minmod3(3.0, 2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(minmod3(-3.0, -2.0, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(minmod3(3.0, -2.0, 1.0), 0.0);
}

// Property sweep: every limiter returns a slope between 0 and the max
// argument magnitude, with the right sign.
class LimiterProperty : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LimiterProperty, SlopesAreBoundedAndSigned) {
  const auto [a, b] = GetParam();
  for (const double s : {minmod(a, b), mc_slope(a, b), van_leer_slope(a, b)}) {
    if (a * b <= 0.0) {
      EXPECT_DOUBLE_EQ(s, 0.0);
    } else {
      EXPECT_GE(s * sign(a), 0.0);
      EXPECT_LE(std::abs(s), 2.0 * std::max(std::abs(a), std::abs(b)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Slopes, LimiterProperty,
    ::testing::Values(std::pair{1.0, 1.0}, std::pair{1.0, 3.0},
                      std::pair{3.0, 1.0}, std::pair{-1.0, -0.5},
                      std::pair{1.0, -1.0}, std::pair{0.0, 1.0},
                      std::pair{1e-12, 1e12}, std::pair{-2.0, 2.0}));

TEST(Math, VanLeerIsHarmonicMean) {
  EXPECT_DOUBLE_EQ(van_leer_slope(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(van_leer_slope(2.0, 2.0), 2.0);
  EXPECT_NEAR(van_leer_slope(1.0, 3.0), 1.5, 1e-14);
}

TEST(Math, RelDiffAndClose) {
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_TRUE(close(1.0, 1.0 + 1e-15));
  EXPECT_FALSE(close(1.0, 1.001));
}

TEST(Error, RequireThrowsWithLocation) {
  try {
    RSHC_REQUIRE(false, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(RSHC_REQUIRE(true, "never"));
}

TEST(Aligned, VectorDataIsCacheLineAligned) {
  aligned_vector<double> v(13, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignment, 0u);
  v.resize(1027);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignment, 0u);
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<double> a;
  AlignedAllocator<int> b;
  EXPECT_TRUE(a == b);
}

TEST(Config, ParsesTypedValues) {
  const Config cfg = Config::from_tokens({"n=42", "cfl=0.4", "name=weno5",
                                          "flag=true"});
  EXPECT_EQ(cfg.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("cfl", 0.0), 0.4);
  EXPECT_EQ(cfg.get_string("name", ""), "weno5");
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_TRUE(cfg.has("n"));
}

TEST(Config, RejectsMalformedTokens) {
  EXPECT_THROW(Config::from_tokens({"novalue"}), Error);
  EXPECT_THROW(Config::from_tokens({"=x"}), Error);
  const Config cfg = Config::from_tokens({"n=abc"});
  EXPECT_THROW((void)cfg.get_int("n", 0), Error);
  EXPECT_THROW((void)cfg.get_double("n", 0.0), Error);
  EXPECT_THROW((void)cfg.get_bool("n", false), Error);
}

TEST(Config, FromArgsSkipsProgramName) {
  const char* argv[] = {"prog", "x=1"};
  const Config cfg = Config::from_args(2, argv);
  EXPECT_EQ(cfg.get_int("x", 0), 1);
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(Table, PrintsAndRoundTripsCsv) {
  Table t({"name", "n", "err"});
  t.set_title("demo");
  t.add_row({std::string("weno5"), 128LL, 1.5e-3});
  t.add_row({std::string("plm"), 128LL, 4.2e-3});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(std::get<std::string>(t.cell(0, 0)), "weno5");
  EXPECT_EQ(std::get<long long>(t.cell(1, 1)), 128);

  std::ostringstream oss;
  t.print(oss);
  EXPECT_NE(oss.str().find("demo"), std::string::npos);
  EXPECT_NE(oss.str().find("weno5"), std::string::npos);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str().substr(0, 11), "name,n,err\n");
}

TEST(Table, RejectsBadShapes) {
  EXPECT_THROW(Table({}), Error);
  Table t({"a"});
  EXPECT_THROW(t.add_row({1.0, 2.0}), Error);
  EXPECT_THROW((void)t.cell(0, 0), Error);
}

TEST(Timer, WallTimerAdvances) {
  WallTimer w;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(w.seconds(), 0.0);
}

}  // namespace
