// Load-generator process of a deployed cluster (see bench/run_cluster.py).
//
//   bft_loadgen --stack pbft --loadgen 0 --replicas 4 --loadgens 1 ...
//   ...       [--shards 1] [--cross-fraction 0.0] ...
//   ...       [--multi-keys 2] [--multi-groups 1024] ...
//   ...       --clients 1000 --base-port 18000 [--host 127.0.0.1] ...
//   ...       [--uds-dir /tmp/sbft] [--seed 42] [--mode closed|open] ...
//   ...       [--warmup-ms 500] [--measure-ms 2000] [--think-us 0]
//
// Drives the wall-clock workload stations (runtime/workload/station.hpp)
// over one TcpTransport per shard group against the live replicas and
// prints the standard workload JSON `Report` (plus the transport counters)
// to stdout. Every client is a shard router: single-key ops go to their
// home group, cross-group multi-ops run 2PC-over-BFT, and with one group
// (the default) the router simply forwards to it. A `--cross-fraction > 0`
// run ends with the torn-write audit; its verdict rides in the report's
// `sharding` object. Exit code 0 iff the run sustained traffic and
// completed operations; 2 on out-of-range or unknown deployment flag
// values.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "deploy_flags.hpp"
#include "runtime/workload/tcp_cluster.hpp"

using namespace sbft;
using namespace sbft::runtime;
using deploy::arg_u32;
using deploy::arg_u64;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "bft_loadgen --loadgen I --loadgens L [--replicas N] [--shards S] "
      "[--stack pbft|splitbft] [--mode closed|open] [--clients C] "
      "[--base-port P | --uds-dir D] ... (N, L, S >= 1; 0 <= I < L)";
  const std::uint32_t replicas = arg_u32(argc, argv, "--replicas", 4);
  const std::uint32_t loadgens = arg_u32(argc, argv, "--loadgens", 1);
  const std::uint32_t loadgen = arg_u32(argc, argv, "--loadgen", 0);
  const std::uint32_t shards = arg_u32(argc, argv, "--shards", 1);
  deploy::require(replicas >= 1 && loadgens >= 1 && shards >= 1, kUsage,
                  "bft_loadgen: --replicas, --loadgens and --shards must be "
                  "at least 1");
  deploy::require(loadgen < loadgens, kUsage,
                  "bft_loadgen: --loadgen " + std::to_string(loadgen) +
                      " is out of range for --loadgens " +
                      std::to_string(loadgens));

  workload::Options options =
      deploy::deployment_options(argc, argv, replicas, shards, kUsage);
  options.mode =
      deploy::arg_choice(argc, argv, "--mode", {"closed", "open"}, kUsage) == 0
          ? workload::LoadMode::Closed
          : workload::LoadMode::Open;
  options.think_time_us = arg_u64(argc, argv, "--think-us", 0);
  options.interarrival_us = arg_u64(argc, argv, "--interarrival-us", 20'000);
  options.warmup_us = arg_u64(argc, argv, "--warmup-ms", 500) * 1000;
  options.measure_us = arg_u64(argc, argv, "--measure-ms", 2000) * 1000;
  options.cross_shard_fraction =
      std::strtod(deploy::arg_value(argc, argv, "--cross-fraction", "0"),
                  nullptr);
  options.multi_keys = arg_u32(argc, argv, "--multi-keys", 2);
  options.multi_groups = arg_u64(argc, argv, "--multi-groups", 1024);

  const workload::Report report = workload::run_tcp_workload(
      options,
      workload::sharded_topologies(
          shards, replicas, loadgens,
          deploy::flat_addrs(argc, argv, shards * (replicas + loadgens))),
      loadgen);
  std::printf("%s\n", workload::report_json(options, report).c_str());
  std::fflush(stdout);

  if (!report.sustained || report.completed_ops == 0) {
    std::fprintf(stderr, "bft_loadgen %u: run did not sustain (%llu ops)\n",
                 loadgen,
                 static_cast<unsigned long long>(report.completed_ops));
    return 1;
  }
  return 0;
}
