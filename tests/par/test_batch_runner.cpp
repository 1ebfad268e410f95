#include "par/batch_runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace ecsim::par {
namespace {

TEST(BatchRunner, MapReturnsResultsInSubmissionOrder) {
  BatchOptions opts;
  opts.threads = 4;
  BatchRunner runner(opts);
  const auto out = runner.map<std::size_t>(
      100, [](TaskContext& ctx) { return ctx.index * 2; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST(BatchRunner, MergedMetricsSnapshotIndependentOfThreadCount) {
  auto merged_json = [](std::size_t threads) {
    obs::MetricsRegistry merged;
    BatchOptions opts;
    opts.threads = threads;
    opts.metrics = &merged;
    BatchRunner runner(opts);
    runner.run(32, [](TaskContext& ctx) {
      ASSERT_NE(ctx.metrics, nullptr);
      ctx.metrics->counter("work").add(ctx.index + 1);
      ctx.metrics->gauge("hwm").set(static_cast<double>(ctx.index));
      ctx.metrics->histogram("size").observe(static_cast<double>(ctx.index));
    });
    return merged.to_json();
  };
  const std::string serial = merged_json(1);
  EXPECT_EQ(serial, merged_json(2));
  EXPECT_EQ(serial, merged_json(7));
  // Counter sums across shards: 1 + 2 + ... + 32 = 528.
  EXPECT_NE(serial.find("\"work\": 528"), std::string::npos);
  // Gauges ratchet to the max across shards.
  EXPECT_NE(serial.find("\"hwm\": 31"), std::string::npos);
}

TEST(BatchRunner, MergedTracerRecordsArriveInTaskIndexOrder) {
  auto merged_events = [](std::size_t threads) {
    obs::Tracer merged(1u << 12);
    BatchOptions opts;
    opts.threads = threads;
    opts.tracer = &merged;
    BatchRunner runner(opts);
    runner.run(16, [](TaskContext& ctx) {
      ASSERT_NE(ctx.tracer, nullptr);
      const std::uint32_t ev = ctx.tracer->intern("task");
      const std::uint32_t trk = ctx.tracer->track(
          "task" + std::to_string(ctx.index), obs::Domain::kSim);
      ctx.tracer->instant(ev, trk, static_cast<double>(ctx.index));
    });
    std::vector<std::pair<std::string, double>> out;
    for (const obs::TraceEvent& e : merged.snapshot()) {
      out.emplace_back(merged.track_name(e.track), e.ts);
    }
    return out;
  };
  const auto serial = merged_events(1);
  ASSERT_EQ(serial.size(), 16u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, "task" + std::to_string(i));
    EXPECT_DOUBLE_EQ(serial[i].second, static_cast<double>(i));
  }
  EXPECT_EQ(serial, merged_events(3));
  EXPECT_EQ(serial, merged_events(7));
}

TEST(BatchRunner, NoShardsAllocatedWithoutDestinations) {
  BatchRunner runner(BatchOptions{});
  runner.run(4, [](TaskContext& ctx) {
    EXPECT_EQ(ctx.metrics, nullptr);
    EXPECT_EQ(ctx.tracer, nullptr);
  });
}

TEST(BatchRunner, RethrowsLowestIndexAfterDrainingAndStillMerges) {
  obs::MetricsRegistry merged;
  BatchOptions opts;
  opts.threads = 4;
  opts.metrics = &merged;
  BatchRunner runner(opts);
  try {
    runner.run(20, [](TaskContext& ctx) {
      ctx.metrics->counter("ran").add();
      if (ctx.index == 7 || ctx.index == 3) {
        throw std::runtime_error("task " + std::to_string(ctx.index));
      }
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // Every task ran and merged its shard before the rethrow.
  EXPECT_EQ(merged.counter("ran").value(), 20u);
}

TEST(BatchRunner, BorrowedPoolIsReused) {
  TaskPool pool(3);
  BatchOptions opts;
  opts.pool = &pool;
  opts.threads = 99;  // ignored: the pool's worker count wins
  BatchRunner runner(opts);
  EXPECT_EQ(runner.threads(), 3u);
  const auto out =
      runner.map<int>(10, [](TaskContext&) { return 1; });
  EXPECT_EQ(out.size(), 10u);
}

}  // namespace
}  // namespace ecsim::par
