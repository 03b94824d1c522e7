// One replica host of a deployed cluster (see bench/run_cluster.py).
//
//   bft_replica --stack pbft --replica 0 --replicas 4 --loadgens 1 ...
//   ...       [--shards 1 --shard-index 0] ...
//   ...       --clients 1000 --base-port 18000 [--host 127.0.0.1] ...
//   ...       [--uds-dir /tmp/sbft] [--seed 42] [--workers 4] ...
//   ...       [--batch-max 200] [--pipeline-depth 8] ...
//   ...       --run-secs 10 [--stats-out replica0.json]
//
// The process assembles its replica (PBFT or SplitBFT) from the shared
// seed — every process of a deployment derives identical keys, so nothing
// is exchanged out of band — serves it over a TcpTransport for
// `--run-secs`, then writes its transport counters as JSON and exits 0
// (2 on out-of-range or unknown deployment flag values).
//
// A sharded deployment (`--shards N`) is N fully independent groups over
// one flat address plan: this process joins shard `--shard-index` only
// (its slice of the plan). With N > 1 it derives its keys from the shard
// seed, so groups share no key material; with one group it uses the
// deployment seed itself.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "deploy_flags.hpp"
#include "runtime/workload/tcp_cluster.hpp"

using namespace sbft;
using namespace sbft::runtime;
using deploy::arg_u32;
using workload::ReplicaNode;

namespace {

[[nodiscard]] std::string stats_json(const net::TransportStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bytes_in\": %llu, \"bytes_out\": %llu, "
                "\"frames_in\": %llu, \"frames_out\": %llu, "
                "\"writev_calls\": %llu, \"frames_per_writev\": %.3f, "
                "\"connects\": %llu, \"reconnects\": %llu, "
                "\"accepts\": %llu, \"backpressure_drops\": %llu, "
                "\"unrouted_drops\": %llu, \"decode_errors\": %llu}",
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.bytes_out),
                static_cast<unsigned long long>(s.frames_in),
                static_cast<unsigned long long>(s.frames_out),
                static_cast<unsigned long long>(s.writev_calls),
                s.frames_per_writev(),
                static_cast<unsigned long long>(s.connects),
                static_cast<unsigned long long>(s.reconnects),
                static_cast<unsigned long long>(s.accepts),
                static_cast<unsigned long long>(s.backpressure_drops),
                static_cast<unsigned long long>(s.unrouted_drops),
                static_cast<unsigned long long>(s.decode_errors));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "bft_replica --replica R --replicas N [--loadgens L] "
      "[--shards S --shard-index K] [--stack pbft|splitbft] [--clients C] "
      "[--base-port P | --uds-dir D] ... (N, L, S >= 1; 0 <= R < N; "
      "0 <= K < S)";
  const std::uint32_t replicas = arg_u32(argc, argv, "--replicas", 4);
  const std::uint32_t loadgens = arg_u32(argc, argv, "--loadgens", 1);
  const std::uint32_t replica = arg_u32(argc, argv, "--replica", 0);
  const std::uint32_t shards = arg_u32(argc, argv, "--shards", 1);
  const std::uint32_t shard_index = arg_u32(argc, argv, "--shard-index", 0);
  deploy::require(replicas >= 1 && loadgens >= 1 && shards >= 1, kUsage,
                  "bft_replica: --replicas, --loadgens and --shards must be "
                  "at least 1");
  deploy::require(replica < replicas, kUsage,
                  "bft_replica: --replica " + std::to_string(replica) +
                      " is out of range for --replicas " +
                      std::to_string(replicas));
  deploy::require(shard_index < shards, kUsage,
                  "bft_replica: --shard-index " + std::to_string(shard_index) +
                      " is out of range for --shards " +
                      std::to_string(shards));

  // This shard's slice of the flat `shards * nodes` address plan, and its
  // key material (the deployment seed itself when there is one shard).
  const workload::ClusterTopology topology = workload::sharded_topologies(
      shards, replicas, loadgens,
      deploy::flat_addrs(argc, argv, shards * (replicas + loadgens)))
      [shard_index];
  const workload::Options options = workload::shard_options(
      deploy::deployment_options(argc, argv, replicas, shards, kUsage),
      shard_index);

  ReplicaNode node(options, topology, replica, {});
  if (!node.start()) {
    std::fprintf(stderr, "bft_replica %u/%u: %s\n", shard_index, replica,
                 node.transport().last_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "bft_replica shard %u replica %u up (%s, %s)\n",
               shard_index, replica, workload::to_string(options.stack),
               topology.addrs[replica].c_str());

  const auto run_secs = deploy::arg_u64(argc, argv, "--run-secs", 10);
  std::this_thread::sleep_for(std::chrono::seconds(run_secs));
  const net::TransportStats stats = node.transport().stats();
  node.stop();

  const std::string json = stats_json(stats);
  const char* stats_out =
      deploy::arg_value(argc, argv, "--stats-out", nullptr);
  if (stats_out) {
    std::ofstream out(stats_out);
    out << json << "\n";
  }
  std::fprintf(stderr, "bft_replica %u stats %s\n", replica, json.c_str());
  return 0;
}
