// Figure 3a — throughput (ops/s) and latency (ms) vs number of clients,
// WITHOUT batching, for the paper's six series: SplitBFT KVS, PBFT KVS,
// SplitBFT KVS Simulation(-mode), SplitBFT KVS Single Thread, SplitBFT
// Blockchain, PBFT Blockchain. 10-byte payloads, closed-loop clients,
// virtual time (workload::run_sim_workload).
//
// Paper shapes to check: SplitBFT reaches ~43-74% of PBFT throughput (KVS)
// and ~38-59% (blockchain); simulation mode recovers ~20% of the gap;
// the single-thread variant caps around 1.2k ops/s.
#include <cstdio>
#include <vector>

#include "runtime/workload/sim_driver.hpp"

using namespace sbft;
using namespace sbft::runtime;
using workload::SimModel;
using workload::Stack;

int main() {
  const std::vector<std::uint32_t> client_counts = {1, 5, 10, 20, 40, 80, 120, 150};
  SimModel sgx_sim;
  sgx_sim.profile.sgx = tee::CostModel::simulation();
  SimModel single;
  single.single_ecall_thread = true;
  SimModel ledger;
  ledger.app = App::Ledger;
  struct Series {
    const char* system;
    const char* app;
    Stack stack;
    SimModel model;
  };
  const std::vector<Series> series = {
      {"SplitBFT", "KVS", Stack::Splitbft, {}},
      {"PBFT", "KVS", Stack::Pbft, {}},
      {"SplitBFT-Simulation", "KVS", Stack::Splitbft, sgx_sim},
      {"SplitBFT-SingleThread", "KVS", Stack::Splitbft, single},
      {"SplitBFT", "Blockchain", Stack::Splitbft, ledger},
      {"PBFT", "Blockchain", Stack::Pbft, ledger},
  };

  std::printf("Figure 3a — unbatched throughput/latency vs clients "
              "(virtual-time model)\n");
  std::printf("%-24s %-11s %8s %12s %11s %9s\n", "system", "workload",
              "clients", "ops/s", "mean-ms", "p99-ms");

  for (const auto& s : series) {
    for (const std::uint32_t clients : client_counts) {
      workload::Options options =
          workload::paper_options(s.stack, /*batched=*/false);
      options.clients = clients;
      options.warmup_us = 200'000;
      options.measure_us = 600'000;
      const workload::Report report =
          workload::run_sim_workload(options, s.model);
      std::printf("%-24s %-11s %8u %12.0f %11.2f %9.2f\n", s.system, s.app,
                  clients, report.ops_per_sec, report.mean_latency_ms,
                  static_cast<double>(report.p99_us) / 1000.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
