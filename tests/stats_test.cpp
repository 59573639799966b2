// Unit tests for common/stats.hpp: the bounded (log-bucketed) latency
// histogram against the exact-sample mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace snacc {
namespace {

// Deterministic 64-bit mix (splitmix64) for reproducible sample streams.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(LatencyStats, BucketedPercentilesTrackExactWithinQuantization) {
  LatencyStats exact{LatencyStats::Mode::kExact};
  LatencyStats bucketed;  // default mode
  std::uint64_t s = 42;
  for (int i = 0; i < 100000; ++i) {
    // Latency-shaped distribution: a dense body plus a long sparse tail.
    const std::uint64_t body = 50000 + mix(s) % 200000;
    const std::uint64_t v = (mix(s) % 100 == 0) ? body * 50 : body;
    exact.add(TimePs{v});
    bucketed.add(TimePs{v});
  }
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double e = static_cast<double>(exact.percentile(p).value());
    const double b = static_cast<double>(bucketed.percentile(p).value());
    // 64 sub-buckets per octave bounds relative error at ~1/64; allow 2x
    // headroom for interpolation at bucket edges.
    EXPECT_NEAR(b / e, 1.0, 0.032) << "p" << p;
  }
}

TEST(LatencyStats, MeanIsBitIdenticalAcrossModes) {
  LatencyStats exact{LatencyStats::Mode::kExact};
  LatencyStats bucketed;
  std::uint64_t s = 7;
  for (int i = 0; i < 10000; ++i) {
    const TimePs t{1 + mix(s) % 1000000};
    exact.add(t);
    bucketed.add(t);
  }
  // Both modes accumulate the mean at add() time in insertion order, so the
  // doubles must match exactly, not just approximately.
  EXPECT_EQ(exact.mean_us(), bucketed.mean_us());
  EXPECT_EQ(exact.count(), bucketed.count());
}

TEST(LatencyStats, MinMaxAreExactInBucketedMode) {
  LatencyStats st;
  st.add(TimePs{12345});
  st.add(TimePs{7});
  st.add(TimePs{999999937});
  EXPECT_EQ(st.min(), TimePs{7});
  EXPECT_EQ(st.max(), TimePs{999999937});
  // Extreme percentiles clamp to the observed range instead of reporting a
  // bucket boundary outside it.
  EXPECT_GE(st.percentile(0.0), st.min());
  EXPECT_LE(st.percentile(100.0), st.max());
}

TEST(LatencyStats, SmallValuesAreExactInBucketedMode) {
  // Values below 64 ps land in 1:1 buckets; percentiles quantize exactly.
  LatencyStats st;
  for (std::uint64_t v = 1; v <= 10; ++v) st.add(TimePs{v});
  EXPECT_EQ(st.percentile(0.0), TimePs{1});
  EXPECT_EQ(st.percentile(100.0), TimePs{10});
  const std::uint64_t p50 = st.percentile(50.0).value();
  EXPECT_GE(p50, 5u);
  EXPECT_LE(p50, 6u);
}

TEST(LatencyStats, EmptyHistogramReportsZeros) {
  LatencyStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean_us(), 0.0);
  EXPECT_EQ(st.percentile(50.0), TimePs{});
  EXPECT_EQ(st.min(), TimePs{});
  EXPECT_EQ(st.max(), TimePs{});
}

TEST(LatencyStats, ExactModeUsesNearestRank) {
  LatencyStats st{LatencyStats::Mode::kExact};
  for (std::uint64_t v : {10u, 20u, 30u, 40u}) st.add(TimePs{v});
  // rank = round(p/100 * (n-1)): p50 over 4 samples names index 2.
  EXPECT_EQ(st.percentile(50.0), TimePs{30});
  EXPECT_EQ(st.percentile(0.0), TimePs{10});
  EXPECT_EQ(st.percentile(100.0), TimePs{40});
}

}  // namespace
}  // namespace snacc
