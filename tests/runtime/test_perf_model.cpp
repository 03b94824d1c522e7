// Unit tests for the virtual-time performance model.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "runtime/perf_model.hpp"
#include "runtime/workload/sim_driver.hpp"

namespace sbft::runtime {
namespace {

TEST(Resource, BooksSequentially) {
  Resource r;
  EXPECT_EQ(r.book(100, 50), 150u);   // idle: starts at ready time
  EXPECT_EQ(r.book(120, 30), 180u);   // busy: queues behind prior work
  EXPECT_EQ(r.book(500, 10), 510u);   // idle again
  EXPECT_EQ(r.total_busy_us, 90u);
}

TEST(Resource, ZeroServiceIsFree) {
  Resource r;
  EXPECT_EQ(r.book(100, 0), 100u);
  EXPECT_EQ(r.total_busy_us, 0u);
}

TEST(CostProfile, SimulationModeRemovesCrossings) {
  CostProfile p;
  EXPECT_GT(p.sgx.crossing_cost(1024, 1024), 0u);
  p.sgx = tee::CostModel::simulation();
  EXPECT_EQ(p.sgx.crossing_cost(1024, 1024), 0u);
}

// The paper-figure points, on the one virtual-time driver.
using workload::paper_options;
using workload::run_sim_workload;
using workload::SimModel;
using workload::Stack;

[[nodiscard]] SimModel single_ecall_thread() {
  SimModel model;
  model.single_ecall_thread = true;
  return model;
}

[[nodiscard]] SimModel sgx_simulation_mode() {
  SimModel model;
  model.profile.sgx = tee::CostModel::simulation();
  return model;
}

[[nodiscard]] SimModel ledger() {
  SimModel model;
  model.app = App::Ledger;
  return model;
}

TEST(BenchHarness, SmallPointsProduceThroughput) {
  // Tiny smoke points — full sweeps live in bench/.
  const std::pair<Stack, SimModel> systems[] = {
      {Stack::Pbft, {}},
      {Stack::Splitbft, {}},
      {Stack::Splitbft, single_ecall_thread()},
  };
  for (const auto& [stack, model] : systems) {
    workload::Options options = paper_options(stack, /*batched=*/false);
    options.clients = 4;
    options.warmup_us = 30'000;
    options.measure_us = 80'000;
    const workload::Report report = run_sim_workload(options, model);
    EXPECT_GT(report.ops_per_sec, 100.0) << to_string(stack);
    EXPECT_GT(report.mean_latency_ms, 0.0) << to_string(stack);
  }
}

[[nodiscard]] double unbatched_20_clients(Stack stack,
                                          const SimModel& model = {}) {
  workload::Options options = paper_options(stack, /*batched=*/false);
  options.clients = 20;
  options.warmup_us = 50'000;
  options.measure_us = 150'000;
  return run_sim_workload(options, model).ops_per_sec;
}

TEST(BenchHarness, SplitbftSlowerThanPbftAndSimFaster) {
  const double pbft = unbatched_20_clients(Stack::Pbft);
  const double split = unbatched_20_clients(Stack::Splitbft);
  const double sim =
      unbatched_20_clients(Stack::Splitbft, sgx_simulation_mode());
  const double single =
      unbatched_20_clients(Stack::Splitbft, single_ecall_thread());

  // The paper's ordering: PBFT > SplitBFT-sim > SplitBFT > single-thread.
  EXPECT_GT(pbft, split);
  EXPECT_GT(sim, split);
  EXPECT_GT(split, single);
  // And the ratio lands in the paper's reported band (43-74%).
  EXPECT_GT(split / pbft, 0.40);
  EXPECT_LT(split / pbft, 0.80);
}

TEST(BenchHarness, BlockchainSlowerThanKvOnSplitbft) {
  EXPECT_GT(unbatched_20_clients(Stack::Splitbft),
            unbatched_20_clients(Stack::Splitbft, ledger()));
}

TEST(BenchHarness, EcallBreakdownPopulatedForSplitbft) {
  workload::Options options =
      paper_options(Stack::Splitbft, /*batched=*/false);
  options.clients = 8;
  options.warmup_us = 30'000;
  options.measure_us = 100'000;
  const workload::Report report = run_sim_workload(options);
  EXPECT_GT(report.leader_ecalls.prep_us_per_req, 0.0);
  EXPECT_GT(report.leader_ecalls.conf_us_per_req, 0.0);
  EXPECT_GT(report.leader_ecalls.exec_us_per_req, 0.0);
}

// Fig. 3b configuration (200-request / 10 ms batches, 40 outstanding per
// client), scaled down to 5 nominal clients.
TEST(BenchHarness, BatchingRaisesThroughputAndKvBeatsLedger) {
  const auto run = [](Stack stack, bool batched, const SimModel& model) {
    workload::Options options = paper_options(stack, batched);
    options.clients = 5 * 40;
    options.warmup_us = 50'000;
    options.measure_us = 150'000;
    return run_sim_workload(options, model).ops_per_sec;
  };
  EXPECT_GT(run(Stack::Pbft, true, {}), run(Stack::Pbft, false, {}));
  const double split_kv = run(Stack::Splitbft, true, {});
  EXPECT_GT(split_kv, run(Stack::Splitbft, false, {}));
  // The paper reports the batched KVS up to 4.6x above the blockchain.
  EXPECT_GT(split_kv, run(Stack::Splitbft, true, ledger()));
}

TEST(BenchHarness, LedgerRejectsMoreThanOneShard) {
  workload::Options options =
      paper_options(Stack::Splitbft, /*batched=*/false);
  options.shards = 2;
  EXPECT_THROW((void)run_sim_workload(options, ledger()),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbft::runtime
