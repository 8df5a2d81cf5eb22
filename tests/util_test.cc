#include <gtest/gtest.h>

#include <set>

#include "util/hash.h"
#include "util/histogram.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/status.h"
#include "util/string_util.h"

namespace apollo::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table FOO");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing table FOO");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fn = []() -> Status {
    APOLLO_RETURN_NOT_OK(Status::Internal("boom"));
    return Status::OK();
  };
  EXPECT_EQ(fn().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("x");
    return 7;
  };
  auto outer = [&](bool fail) -> Status {
    int v = 0;
    APOLLO_ASSIGN_OR_RETURN(v, inner(fail));
    EXPECT_EQ(v, 7);
    return Status::OK();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_EQ(outer(true).code(), StatusCode::kNotFound);
}

TEST(HashTest, StableAndDistinct) {
  EXPECT_EQ(Hash64("SELECT 1"), Hash64("SELECT 1"));
  EXPECT_NE(Hash64("SELECT 1"), Hash64("SELECT 2"));
  EXPECT_NE(Hash64(""), 0u);
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(5);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5) ? 1 : 0;
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(7.0);
  EXPECT_NEAR(sum / n, 7.0, 0.35);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(3);
  std::vector<double> w = {0.1, 0.9};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.Discrete(w) == 1 ? 1 : 0;
  EXPECT_GT(ones, 8500);
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  Rng rng(11);
  Zipf zipf(1000, 0.99);
  int small = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = zipf.Next(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v <= 100) ++small;
  }
  EXPECT_GT(small, 5000);  // heavy head
}

TEST(HistogramTest, MeanAndPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.Percentile(50), 50);
  EXPECT_EQ(h.Percentile(97), 97);
  EXPECT_EQ(h.Percentile(100), 100);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a;
  Histogram b;
  a.Record(1);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.Percentile(99), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(Millis(1.5), 1500);
  EXPECT_EQ(Seconds(2), 2000000);
  EXPECT_EQ(Minutes(1), 60000000);
  EXPECT_DOUBLE_EQ(ToMillis(2500), 2.5);
}

TEST(StringUtilTest, Case) {
  EXPECT_EQ(ToUpperAscii("sElEcT"), "SELECT");
  EXPECT_EQ(ToLowerAscii("FooBar"), "foobar");
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("HELLO", "he%"));
  EXPECT_TRUE(LikeMatch("HELLO", "%LL%"));
  EXPECT_TRUE(LikeMatch("HELLO", "h_llo"));
  EXPECT_FALSE(LikeMatch("HELLO", "h_lo"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
}

TEST(StringUtilTest, LikePatternFastPaths) {
  EXPECT_TRUE(LikePattern("TITLE12%").Matches("title123"));   // prefix
  EXPECT_FALSE(LikePattern("TITLE12%").Matches("TITLE1"));
  EXPECT_TRUE(LikePattern("%ln7").Matches("LN7"));            // suffix
  EXPECT_FALSE(LikePattern("%ln7").Matches("LN70"));
  EXPECT_TRUE(LikePattern("%Ll%").Matches("HELLO"));          // contains
  EXPECT_FALSE(LikePattern("%lx%").Matches("HELLO"));
  EXPECT_TRUE(LikePattern("HeLLo").Matches("hello"));         // exact
  EXPECT_FALSE(LikePattern("hell").Matches("hello"));
  EXPECT_TRUE(LikePattern("h_llo").Matches("HELLO"));         // '_'
  EXPECT_TRUE(LikePattern("%%").Matches(""));
  EXPECT_TRUE(LikePattern("%").Matches("anything"));
  EXPECT_TRUE(LikePattern("").Matches(""));
  EXPECT_FALSE(LikePattern("").Matches("a"));
}

TEST(StringUtilTest, LikePatternAgreesWithLikeMatch) {
  // Every compiled pattern must agree with the reference matcher on a
  // randomized corpus, fast paths and fallback alike.
  Rng rng(2024);
  auto random_string = [&](const std::string& alphabet, int max_len) {
    std::string s;
    const int64_t len = rng.UniformInt(0, max_len);
    for (int64_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.UniformInt(
          0, static_cast<int64_t>(alphabet.size()) - 1)]);
    }
    return s;
  };
  std::vector<std::string> patterns = {
      "ab%", "%ab", "%ab%", "ab", "a_c", "%%", "%", "", "AbC%", "%B_%",
      "_", "%_", "a%b", "%a%b%", "ABC", "%%ab%%", "_%_"};
  for (int i = 0; i < 300; ++i) patterns.push_back(random_string("abAB%_", 5));
  std::vector<std::string> values;
  for (int i = 0; i < 400; ++i) values.push_back(random_string("abcABC_%", 6));
  for (const auto& p : patterns) {
    const LikePattern compiled(p);
    for (const auto& v : values) {
      ASSERT_EQ(compiled.Matches(v), LikeMatch(v, p))
          << "value '" << v << "' pattern '" << p << "'";
    }
  }
}

}  // namespace
}  // namespace apollo::util
