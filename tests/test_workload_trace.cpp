#include "src/workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace rps::workload {
namespace {

Trace make_trace() {
  Trace t("demo");
  t.add({0, IoKind::kWrite, 10, 2});
  t.add({100, IoKind::kRead, 4, 1});
  t.add({5'000, IoKind::kWrite, 100, 8});
  return t;
}

TEST(Trace, BasicAccessors) {
  const Trace t = make_trace();
  EXPECT_EQ(t.name(), "demo");
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(t.is_sorted());
  EXPECT_EQ(t.lpn_span(), 108u);
}

TEST(Trace, SortByArrival) {
  Trace t;
  t.add({50, IoKind::kRead, 1, 1});
  t.add({10, IoKind::kWrite, 2, 1});
  EXPECT_FALSE(t.is_sorted());
  t.sort_by_arrival();
  EXPECT_TRUE(t.is_sorted());
  EXPECT_EQ(t.requests().front().lpn, 2u);
}

TEST(TraceStats, CountsAndRatio) {
  const TraceStats s = make_trace().stats();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.read_requests, 1u);
  EXPECT_EQ(s.write_requests, 2u);
  EXPECT_EQ(s.read_pages, 1u);
  EXPECT_EQ(s.write_pages, 10u);
  EXPECT_NEAR(s.read_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(s.duration_us, 5'000);
}

TEST(TraceStats, IdleFraction) {
  const TraceStats s = make_trace().stats(/*idle_threshold_us=*/1000);
  // Only the 100 -> 5000 gap exceeds the threshold.
  EXPECT_NEAR(s.idle_fraction, 4'900.0 / 5'000.0, 1e-9);
  const TraceStats s2 = make_trace().stats(/*idle_threshold_us=*/10'000);
  EXPECT_DOUBLE_EQ(s2.idle_fraction, 0.0);
}

TEST(TraceStats, IntensivenessBuckets) {
  auto trace_with_rate = [](Microseconds gap, std::size_t n) {
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
      t.add({static_cast<Microseconds>(i) * gap, IoKind::kWrite, 0, 1});
    }
    return t.stats();
  };
  EXPECT_EQ(trace_with_rate(50, 1000).intensiveness(), "Very high");   // 20k IOPS
  EXPECT_EQ(trace_with_rate(500, 1000).intensiveness(), "High");      // 2k IOPS
  EXPECT_EQ(trace_with_rate(5'000, 1000).intensiveness(), "Moderate");
  EXPECT_EQ(trace_with_rate(50'000, 100).intensiveness(), "Low");
}

TEST(Trace, SaveLoadRoundTrip) {
  const std::string path = "/tmp/rps_trace_test.txt";
  const Trace original = make_trace();
  ASSERT_TRUE(original.save(path).is_ok());
  Result<Trace> loaded = Trace::load(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().name(), "demo");
  EXPECT_EQ(loaded.value().requests(), original.requests());
  std::filesystem::remove(path);
}

TEST(Trace, LoadRejectsMalformedLines) {
  const std::string path = testing::TempDir() + "rps_trace_malformed.txt";
  // Control: a saved trace loads, and equal arrivals are in order.
  Trace ties = make_trace();
  ties.add({5'000, IoKind::kRead, 0, 1});
  ASSERT_TRUE(ties.save(path).is_ok());
  Result<Trace> loaded = Trace::load(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().requests(), ties.requests());

  for (const char* body : {
           "100 W 0 1\n50 W 1 1\n",             // arrivals decrease
           "0 W -1 1\n",                        // signed LPN
           "0 W 1 -1\n",                        // signed page count
           "0 W +1 1\n",                        // signed LPN
           "0 W 18446744073709551615 1\n",      // range past the last LPN
           "0 X 0 1\n",                         // unknown kind
           "0 r 0 1\n",                         // kinds are upper case
           "0 W 0 1 extra\n",                   // trailing token
           "0 W 0\n",                           // missing field
           "0x10 W 0 1\n",                      // arrival not decimal
       }) {
    std::ofstream(path) << "# flexnand trace: bad\n" << body;
    EXPECT_EQ(Trace::load(path).code(), ErrorCode::kInvalidArgument) << body;
  }
  std::filesystem::remove(path);
}

TEST(Trace, LoadMissingFile) {
  EXPECT_EQ(Trace::load("/nonexistent/path/trace.txt").code(), ErrorCode::kNotFound);
}

TEST(Trace, EmptyStats) {
  const TraceStats s = Trace().stats();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.iops(), 0.0);
  EXPECT_EQ(s.read_fraction(), 0.0);
}

}  // namespace
}  // namespace rps::workload
