// The one request path (DESIGN.md §3.9): run_in_process maps a whole
// Request onto the sweep/spec APIs, evaluate_unit is that mapping applied to
// one unit's sub-request, and svc::execute serves a request from the daemon
// or — when the daemon is away — in-process. These tests pin the identity
// the CLI relies on: a whole in-process run produces exactly the unit
// payloads a daemon would, for every verb and at any thread count or batch
// width.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/warm_cache.hpp"

namespace ecsim::svc {
namespace {

constexpr const char* kServoSpec = R"([algorithm]
name   servo-loop
period 0.01
op  sense sensor   2e-4 @P0
op  ctrl  compute  3e-3 @P1
op  act   actuator 2e-4 @P0
dep sense ctrl 8
dep ctrl  act  8

[architecture]
name  two-ecu
proc  P0 cpu
proc  P1 cpu
bus   can 2e4 2e-4 P0 P1
)";

par::BatchOptions threads(std::size_t n) {
  par::BatchOptions batch;
  batch.threads = n;
  return batch;
}

Request grid_request(Verb verb, std::vector<double> rows,
                     std::vector<double> cols) {
  Request req;
  req.verb = verb;
  req.t_end = 0.2;  // short horizon: this is a unit test
  req.rows = std::move(rows);
  req.cols = std::move(cols);
  return req;
}

/// Whole-request cells at 2 threads, encoded, against evaluate_unit.
template <class Cell>
void expect_units_match(const Request& req) {
  WarmCache warm;
  std::vector<Cell> cells;
  run_in_process(req, threads(2), 0, warm, cells);
  ASSERT_EQ(cells.size(), req.units());
  for (std::size_t u = 0; u < req.units(); ++u) {
    EXPECT_EQ(encode_cell(cells[u]), evaluate_unit(req, u, warm))
        << to_string(req.verb) << " unit " << u;
  }
}

TEST(RequestPath, WholeGridRunEqualsEveryUnitPayload) {
  expect_units_match<sweep::SweepCell>(
      grid_request(Verb::kSweepTiming, {0.0, 0.4}, {0.0, 0.2}));
  // (1e3, x4) does not fit the period: unschedulable on both paths.
  expect_units_match<sweep::SweepCell>(
      grid_request(Verb::kSweepArch, {1e5, 1e3}, {1.0, 4.0}));
  expect_units_match<sweep::NetworkCell>(
      grid_request(Verb::kSweepNetwork, {0.0, 0.6}, {0.0, 1.0}));
  Request fault = grid_request(Verb::kFaultSweep, {0.0, 0.2}, {0.0, 0.002});
  fault.seed = 7;
  expect_units_match<sweep::FaultCell>(fault);
}

TEST(RequestPath, FaultMonteCarloTrialsEqualTheirUnitsAtAnyBatchWidth) {
  Request req;
  req.verb = Verb::kFaultMc;
  req.t_end = 0.2;
  req.trials = 5;
  req.seed = 11;
  req.loss = 0.2;
  WarmCache warm;
  for (const std::size_t width : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
    sweep::FaultMonteCarloResult result;
    run_in_process(req, threads(2), width, warm, result);
    ASSERT_EQ(result.cells.size(), req.trials);
    for (std::size_t u = 0; u < req.trials; ++u) {
      EXPECT_EQ(encode_cell(result.cells[u]), evaluate_unit(req, u, warm))
          << "width " << width << " trial " << u;
    }
  }
}

TEST(RequestPath, VmMonteCarloRunEqualsItsUnit) {
  Request req;
  req.verb = Verb::kVmMc;
  req.trials = 12;
  req.iterations = 10;
  req.seed = 3;
  req.spec_text = kServoSpec;
  WarmCache warm;
  sweep::MonteCarloResult result;
  run_in_process(req, threads(2), 4, warm, result);
  EXPECT_EQ(encode_mc(result), evaluate_unit(req, 0, warm));
}

TEST(RequestPath, ResultTypeMustMatchTheVerb) {
  WarmCache warm;
  const Request timing = grid_request(Verb::kSweepTiming, {0.0}, {0.0});
  std::vector<sweep::FaultCell> fault_cells;
  EXPECT_THROW(run_in_process(timing, threads(1), 0, warm, fault_cells),
               std::invalid_argument);
  std::vector<sweep::NetworkCell> network_cells;
  EXPECT_THROW(run_in_process(timing, threads(1), 0, warm, network_cells),
               std::invalid_argument);
  sweep::MonteCarloResult mc;
  EXPECT_THROW(run_in_process(timing, threads(1), 0, warm, mc),
               std::invalid_argument);
}

TEST(RequestPath, ExecuteFallsBackInProcessAndSaysWhyOnce) {
  const Request req = grid_request(Verb::kSweepTiming, {0.0, 0.4}, {0.1});
  WarmCache warm;
  std::vector<sweep::SweepCell> want;
  run_in_process(req, threads(1), 0, warm, want);

  std::vector<sweep::SweepCell> got;
  testing::internal::CaptureStderr();
  const auto meta = execute(req, "/tmp/ecsim_request_path_no_daemon.sock",
                            threads(2), 0, warm, got);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(meta.has_value());
  EXPECT_EQ(err.rfind("svc: falling back in-process: connect "
                      "/tmp/ecsim_request_path_no_daemon.sock",
                      0),
            0u)
      << err;
  EXPECT_EQ(err.find('\n'), err.size() - 1) << "one reason line: " << err;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(encode_cell(got[i]), encode_cell(want[i])) << "cell " << i;
  }

  // No --connect: in-process without a word on stderr.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(execute(req, "", threads(1), 0, warm, got).has_value());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(RequestPath, CanonicalRequestsAreTheCliGrids) {
  const Request network = canonical_request(Verb::kSweepNetwork);
  const sweep::NetworkGrid grid = sweep::network_servo_grid();
  EXPECT_EQ(network.rows, grid.bus_loads);
  ASSERT_EQ(network.cols.size(), grid.scenarios.size());
  for (std::size_t i = 0; i < grid.scenarios.size(); ++i) {
    EXPECT_EQ(sweep::scenario_of_code(network.cols[i]), grid.scenarios[i]);
  }
  EXPECT_EQ(canonical_request(Verb::kSweepTiming).units(), 35u);
  EXPECT_EQ(canonical_request(Verb::kSweepArch).units(), 20u);
  EXPECT_EQ(canonical_request(Verb::kFaultSweep).units(), 20u);
  EXPECT_THROW(canonical_request(Verb::kFaultMc), std::invalid_argument);
  EXPECT_THROW(canonical_request(Verb::kVmMc), std::invalid_argument);
}

TEST(RequestPath, PrepareSpecIsTheWarmCachePipeline) {
  const WarmSpec direct = prepare_spec(kServoSpec);
  WarmCache warm;
  const WarmSpec& cached = warm.spec(kServoSpec);
  EXPECT_EQ(cached.content_hash, direct.content_hash);
  EXPECT_EQ(cached.sched.makespan(), direct.sched.makespan());
  EXPECT_EQ(cached.code.source, direct.code.source);
  const std::string no_arch = std::string(kServoSpec)
                                  .substr(0, std::string(kServoSpec)
                                                 .find("[architecture]"));
  try {
    prepare_spec(no_arch);
    FAIL() << "a spec without [architecture] must not prepare";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "spec has no [architecture] section");
  }
}

}  // namespace
}  // namespace ecsim::svc
