// Workload engine, simulator driver.
//
// Runs the configured load shape against an `Options::shards`-group
// deployment (runtime/sharded_cluster.hpp) in virtual time: every load
// client is a shard::Router spanning all groups, replicas are wrapped in
// the perf model so queueing and pipeline effects emerge as on real
// hardware, and the groups advance in lockstep. A single-group run is the
// router over one group, so shard-count sweeps compare like with like.
// Deterministic from Options::seed.
//
// The paper figures (bench/fig3a, fig3b, fig4 and the ablations) run here
// too: `paper_options` is their load point, and `SimModel` carries the
// perf-model inputs only a simulated replica has.
//
// When `cross_shard_fraction > 0`, the run ends with the torn-write audit:
// load stops, in-flight transactions drain, and a verifier client reads
// back every multi-op key group — any group whose keys disagree is a torn
// transaction and lands in `Report::sharding.torn_groups`.
#pragma once

#include "runtime/perf_model.hpp"
#include "runtime/sharded_cluster.hpp"
#include "runtime/workload/workload.hpp"

namespace sbft::runtime::workload {

/// Perf-model inputs of the virtual-time driver alone. The defaults are
/// the model every workload bench runs.
struct SimModel {
  /// Primitive costs and the SGX crossing model: `profile.sgx =
  /// tee::CostModel::simulation()` is the paper's SGX simulation mode.
  CostProfile profile{};
  /// SplitBFT: all three enclaves share one ecall thread.
  bool single_ecall_thread{false};
  /// Replicated application. Ledger stores every generated op as an opaque
  /// transaction and persists one block per 5; it needs `shards == 1`
  /// (std::invalid_argument otherwise).
  App app{App::KvStore};
};

/// The paper's evaluation point (§6): closed-loop 10-byte PUTs on uniform
/// keys, PBFT with a 4-worker pool and SplitBFT with one ecall thread per
/// enclave, unbatched (batch 1) or batched (200 requests / 10 ms).
[[nodiscard]] Options paper_options(Stack stack, bool batched);

/// Runs one load point to completion in virtual time.
[[nodiscard]] Report run_sim_workload(const Options& options,
                                      const SimModel& model = {});

}  // namespace sbft::runtime::workload
