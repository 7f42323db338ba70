#include "util/token_bucket.h"

#include <gtest/gtest.h>

namespace barb {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(TokenBucket, StartsFull) {
  TokenBucket tb(100.0, 5.0);
  const auto t0 = TimePoint::origin();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tb.try_consume(t0));
  EXPECT_FALSE(tb.try_consume(t0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket tb(1000.0, 1.0);
  auto t = TimePoint::origin();
  EXPECT_TRUE(tb.try_consume(t));
  EXPECT_FALSE(tb.try_consume(t));
  t = t + Duration::milliseconds(1);  // exactly one token accrues
  EXPECT_TRUE(tb.try_consume(t));
  EXPECT_FALSE(tb.try_consume(t));
}

TEST(TokenBucket, BurstCapsAccumulation) {
  TokenBucket tb(1000.0, 2.0);
  auto t = TimePoint::origin() + Duration::seconds(10);  // long idle
  int consumed = 0;
  while (tb.try_consume(t)) ++consumed;
  EXPECT_EQ(consumed, 2);
}

TEST(TokenBucket, TimeUntilAvailableIsExact) {
  TokenBucket tb(500.0, 1.0);
  auto t = TimePoint::origin();
  EXPECT_TRUE(tb.try_consume(t));
  const auto wait = tb.time_until_available(t);
  EXPECT_EQ(wait, Duration::milliseconds(2));
  EXPECT_TRUE(tb.try_consume(t + wait));
}

TEST(TokenBucket, ZeroWaitWhenTokensPresent) {
  TokenBucket tb(10.0, 3.0);
  EXPECT_EQ(tb.time_until_available(TimePoint::origin()), Duration::zero());
}

// Property: pacing N consumptions through the bucket takes (N-burst)/rate.
class TokenBucketPacing : public ::testing::TestWithParam<double> {};

TEST_P(TokenBucketPacing, LongRunRateMatchesConfiguredRate) {
  const double rate = GetParam();
  TokenBucket tb(rate, 1.0);
  auto t = TimePoint::origin();
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    t = t + tb.time_until_available(t);
    ASSERT_TRUE(tb.try_consume(t));
  }
  const double elapsed = (t - TimePoint::origin()).to_seconds();
  const double achieved = (n - 1) / elapsed;  // first token was free (full bucket)
  EXPECT_NEAR(achieved, rate, rate * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Rates, TokenBucketPacing,
                         ::testing::Values(10.0, 1000.0, 45000.0, 148810.0));

}  // namespace
}  // namespace barb
