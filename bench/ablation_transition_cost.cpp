// Ablation A — sensitivity of SplitBFT throughput to the enclave
// transition cost (the §6 discussion attributes ~20% of the overhead to
// transitions; this sweep shows the full curve from free transitions to 4x
// the SGX cost). Virtual time (workload::run_sim_workload).
#include <cstdio>

#include "runtime/workload/sim_driver.hpp"

using namespace sbft;
using namespace sbft::runtime;
using workload::Stack;

namespace {

[[nodiscard]] workload::Options unbatched_point(Stack stack) {
  workload::Options options = workload::paper_options(stack, false);
  options.clients = 40;
  options.warmup_us = 150'000;
  options.measure_us = 400'000;
  return options;
}

}  // namespace

int main() {
  std::printf("Ablation — SplitBFT KVS throughput vs enclave transition "
              "cost (40 clients, unbatched)\n");
  std::printf("%14s %12s %11s\n", "transition-us", "ops/s", "mean-ms");

  for (const double transition : {0.0, 1.0, 2.3, 4.0, 8.0, 16.0}) {
    workload::SimModel model;
    model.profile.sgx.transition_us = transition;
    const workload::Report report =
        workload::run_sim_workload(unbatched_point(Stack::Splitbft), model);
    std::printf("%14.1f %12.0f %11.2f\n", transition, report.ops_per_sec,
                report.mean_latency_ms);
    std::fflush(stdout);
  }

  std::printf("\nFor reference, PBFT (no enclaves) at the same load:\n");
  const workload::Report base =
      workload::run_sim_workload(unbatched_point(Stack::Pbft));
  std::printf("%14s %12.0f %11.2f\n", "PBFT", base.ops_per_sec,
              base.mean_latency_ms);
  return 0;
}
