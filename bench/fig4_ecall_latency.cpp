// Figure 4 — average time spent inside each compartment's enclave during
// the processing of one request (unbatched) or one batch (batched),
// measured on the leader with 40 clients, KVS application, virtual time
// (workload::run_sim_workload).
//
// Paper numbers to compare: unbatched ecalls sum to ~841 µs per request
// with Execution the largest (~343 µs); batched runs are dominated by the
// Preparation ecall (batch authentication + copy-in), while Confirmation
// stays flat since it only ever handles the batch hash.
//
// Exits nonzero unless every compartment shows enclave time in both modes
// and Execution is the largest unbatched share.
#include <cstdio>

#include "runtime/workload/sim_driver.hpp"

using namespace sbft;
using namespace sbft::runtime;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void run_mode(bool batched) {
  workload::Options options =
      workload::paper_options(workload::Stack::Splitbft, batched);
  options.clients = batched ? 40 * 40 : 40;  // 40 outstanding when batched
  options.warmup_us = 150'000;
  options.measure_us = 400'000;
  const workload::Report report = workload::run_sim_workload(options);

  const auto& e = report.leader_ecalls;
  const char* mode = batched ? "Batched" : "Not Batched";
  std::printf("%-12s per-%s enclave time on the leader:\n", mode,
              batched ? "batch " : "request");
  const double unit = batched ? 200.0 : 1.0;  // per batch vs per request
  std::printf("  Preparation  : %9.1f us\n", e.prep_us_per_req * unit);
  std::printf("  Confirmation : %9.1f us\n", e.conf_us_per_req * unit);
  std::printf("  Execution    : %9.1f us\n", e.exec_us_per_req * unit);
  std::printf("  total        : %9.1f us\n",
              (e.prep_us_per_req + e.conf_us_per_req + e.exec_us_per_req) *
                  unit);
  std::printf("  mean single ecall: prep=%.1f us conf=%.1f us exec=%.1f us\n",
              e.prep_mean_ecall_us, e.conf_mean_ecall_us,
              e.exec_mean_ecall_us);
  std::printf("  (throughput at this point: %.0f ops/s)\n\n",
              report.ops_per_sec);

  expect(report.completed_ops > 0, "the load point must complete ops");
  expect(e.prep_us_per_req > 0 && e.conf_us_per_req > 0 &&
             e.exec_us_per_req > 0,
         "every compartment must show enclave time");
  if (!batched) {
    expect(e.exec_us_per_req > e.prep_us_per_req &&
               e.exec_us_per_req > e.conf_us_per_req,
           "unbatched Execution must be the largest ecall share");
  }
}

}  // namespace

int main() {
  std::printf("Figure 4 — mean ecall latency per compartment "
              "(leader, 40 clients, KVS)\n\n");
  run_mode(/*batched=*/false);
  run_mode(/*batched=*/true);
  std::printf("Paper reference: unbatched ecalls sum to ~841 us/request "
              "(Execution ~343 us);\nbatched mode is dominated by the "
              "Preparation ecall; Confirmation is unaffected\nby batching "
              "(hash-only input).\n");
  return failures == 0 ? 0 : 1;
}
