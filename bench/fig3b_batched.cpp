// Figure 3b — throughput (ops/s) and latency (ms) vs number of clients,
// WITH batching: batches close at 200 requests or a 10 ms timeout, and
// every client keeps 40 requests outstanding (modeled as 40 independent
// closed-loop clients per nominal client). Virtual time
// (workload::run_sim_workload).
//
// Paper shapes to check: batched SplitBFT reaches ~64% of PBFT for the
// KVS and ~55% for the blockchain; the KVS beats the blockchain by up to
// 4.6x (one protected-FS ocall per 5-transaction block).
#include <cstdio>
#include <vector>

#include "runtime/workload/sim_driver.hpp"

using namespace sbft;
using namespace sbft::runtime;
using workload::SimModel;
using workload::Stack;

int main() {
  const std::vector<std::uint32_t> client_counts = {10, 40, 80, 120, 150};
  constexpr std::uint32_t kOutstanding = 40;
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
      {"SplitBFT", "Blockchain", Stack::Splitbft, ledger},
      {"PBFT", "Blockchain", Stack::Pbft, ledger},
  };

  std::printf("Figure 3b — batched (200 req / 10 ms, 40 outstanding per "
              "client) throughput/latency vs clients\n");
  std::printf("%-24s %-11s %8s %12s %11s %9s\n", "system", "workload",
              "clients", "ops/s", "mean-ms", "p99-ms");

  for (const auto& s : series) {
    for (const std::uint32_t clients : client_counts) {
      workload::Options options =
          workload::paper_options(s.stack, /*batched=*/true);
      options.clients = clients * kOutstanding;
      options.warmup_us = 150'000;
      options.measure_us = 400'000;
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
