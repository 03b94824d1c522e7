// Ablation B — batch size sweep: how request batching amortizes enclave
// crossings and signatures (the lever behind the Figure 3a -> 3b jump).
// Virtual time (workload::run_sim_workload); batch 1 runs the unbatched
// protocol configuration, every other size the batched one.
#include <cstdio>
#include <vector>

#include "runtime/workload/sim_driver.hpp"

using namespace sbft;
using namespace sbft::runtime;
using workload::Stack;

int main() {
  std::printf("Ablation — throughput vs batch size "
              "(40 clients x 40 outstanding, KVS)\n");
  std::printf("%10s %-12s %12s %11s\n", "batch", "system", "ops/s", "mean-ms");

  for (const std::size_t batch : {1, 10, 50, 100, 200}) {
    for (const Stack stack : {Stack::Splitbft, Stack::Pbft}) {
      workload::Options options =
          workload::paper_options(stack, /*batched=*/batch > 1);
      options.protocol.batch_max = batch;
      options.clients = 40 * 40;
      options.warmup_us = 150'000;
      options.measure_us = 400'000;
      const workload::Report report = workload::run_sim_workload(options);
      std::printf("%10zu %-12s %12.0f %11.2f\n", batch,
                  stack == Stack::Pbft ? "PBFT" : "SplitBFT",
                  report.ops_per_sec, report.mean_latency_ms);
      std::fflush(stdout);
    }
  }
  std::printf("\nBatching amortizes one set of signatures + crossings over "
              "up to 200 requests —\nthe throughput multiplier is the "
              "paper's core Figure 3a->3b result.\n");
  return 0;
}
