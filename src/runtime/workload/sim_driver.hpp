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
// When `cross_shard_fraction > 0`, the run ends with the torn-write audit:
// load stops, in-flight transactions drain, and a verifier client reads
// back every multi-op key group — any group whose keys disagree is a torn
// transaction and lands in `Report::sharding.torn_groups`.
#pragma once

#include "runtime/workload/workload.hpp"

namespace sbft::runtime::workload {

/// Runs one load point to completion in virtual time.
[[nodiscard]] Report run_sim_workload(const Options& options);

}  // namespace sbft::runtime::workload
