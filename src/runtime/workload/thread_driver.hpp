// Workload engine, threaded-runtime driver.
//
// The same load shapes as the simulator driver, but over the REAL
// ThreadNetwork in wall-clock time, on the wall-clock stations of
// runtime/workload/station.hpp: one group of replicas assembled exactly as
// a TCP deployment's processes assemble theirs (SeededReplica), each behind
// its own consumer thread; clients are routers over that one group,
// multiplexed onto a small set of station endpoints
// (register_endpoint_group — one queue + consumer per station, not one
// thread per client); a ticker thread drives protocol and client timers.
// This is the configuration that actually contends on the
// pipelined-batching paths, the sharded client directory and the
// ThreadNetwork drain/shutdown handshake. A run that wrote multi-key groups
// ends with the torn-write audit.
#pragma once

#include "runtime/workload/workload.hpp"

namespace sbft::runtime::workload {

/// Runs one load point in wall-clock time. `Options::warmup_us` and
/// `measure_us` are real durations — keep them short (hundreds of ms);
/// wall-clock numbers are trajectory-only, never hard-asserted. Runs one
/// group whatever `Options::shards` says.
[[nodiscard]] Report run_thread_workload(const Options& options);

}  // namespace sbft::runtime::workload
