// Loopback cluster integration: 4 replica nodes + a loadgen over real
// sockets (in-process, but every byte crosses the kernel), with one
// replica killed and restarted mid-run to exercise reconnect/backoff.
//
// Unix-domain addressing keeps every node's address deterministic (no
// ephemeral-port discovery dance) and exercises the same-host deployment
// path; the TCP byte path itself is covered by tests/net.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/workload/tcp_cluster.hpp"

namespace sbft::runtime::workload {
namespace {

[[nodiscard]] Options cluster_options(Stack stack) {
  Options options;
  options.stack = stack;
  options.clients = 64;
  options.seed = 2024;
  options.workers = 2;
  options.warmup_us = 300'000;
  options.measure_us = 1'200'000;
  options.protocol.n = 4;
  options.protocol.f = 1;
  options.protocol.batch_max = 100;
  options.protocol.batch_timeout_us = 5'000;
  options.protocol.checkpoint_interval = 50;
  options.protocol.watermark_window = 400;
  options.protocol.pipeline_depth = 4;
  options.protocol.request_timeout_us = 2'000'000;
  return options;
}

[[nodiscard]] net::TcpTransport::Options fast_reconnect() {
  net::TcpTransport::Options options;
  options.reconnect_backoff_min_us = 5'000;
  options.reconnect_backoff_max_us = 100'000;
  return options;
}

class LoopbackCluster {
 public:
  LoopbackCluster(const Options& options, const std::string& tag)
      : options_(options) {
    topology_.replicas = 4;
    topology_.loadgens = 1;
    for (std::uint32_t node = 0; node < topology_.nodes(); ++node) {
      // Distinct per test AND per process: ctest runs suites concurrently.
      topology_.addrs.push_back("unix:/tmp/sbft_" + tag + "_" +
                                std::to_string(::getpid()) + "_" +
                                std::to_string(node) + ".sock");
    }
  }

  [[nodiscard]] bool start_replica(ReplicaId r) {
    nodes_[r] = std::make_unique<ReplicaNode>(options_, topology_, r,
                                              fast_reconnect());
    return nodes_[r]->start();
  }

  void stop_replica(ReplicaId r) { nodes_[r].reset(); }

  [[nodiscard]] ReplicaNode& node(ReplicaId r) { return *nodes_[r]; }

  [[nodiscard]] Report run_loadgen() {
    return run_tcp_workload(options_, {topology_}, 0, fast_reconnect());
  }

 private:
  Options options_;
  ClusterTopology topology_;
  std::unique_ptr<ReplicaNode> nodes_[4];
};

void run_with_mid_run_restart(Stack stack, const std::string& tag) {
  LoopbackCluster cluster(cluster_options(stack), tag);
  for (ReplicaId r = 0; r < 4; ++r) {
    ASSERT_TRUE(cluster.start_replica(r));
  }

  // Kill replica 3 (never the view-0 primary) mid-warmup, restart it
  // mid-measurement: commits must continue on the remaining 3 = 2f+1
  // replicas, and every peer must reconnect to the revived node (same
  // socket address, as under a process supervisor).
  std::atomic<bool> done{false};
  std::atomic<bool> restart_ok{true};
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (done.load()) return;
    cluster.stop_replica(3);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (done.load()) return;
    restart_ok.store(cluster.start_replica(3));
  });

  const Report report = cluster.run_loadgen();
  done.store(true);
  chaos.join();
  EXPECT_TRUE(restart_ok.load());

  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
  // The loadgen observed the outage: its egress connection to replica 3
  // broke and re-established at least once.
  EXPECT_GE(report.transport.reconnects, 1u);
  EXPECT_GT(report.transport.frames_out, 0u);
  EXPECT_GT(report.transport.bytes_in, 0u);
  EXPECT_GT(report.transport.frames_per_writev, 0.0);
}

TEST(TcpCluster, PbftSurvivesReplicaRestartMidRun) {
  run_with_mid_run_restart(Stack::Pbft, "pbft");
}

TEST(TcpCluster, SplitbftSurvivesReplicaRestartMidRun) {
  run_with_mid_run_restart(Stack::Splitbft, "split");
}

/// Wall-clock poll (10ms) until `pred` holds or `timeout_ms` elapses.
[[nodiscard]] bool wait_for(const std::function<bool()>& pred,
                            int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// Streaming state transfer under process churn: replica 3 falls behind a
// checkpoint and recovers over real sockets while (a) a serving peer is
// killed out from under the in-flight transfer and (b) the recovering
// replica itself is killed and restarted from nothing. Both casualties
// must converge back to the healthy frontier.
void run_with_mid_transfer_kills(Stack stack, const std::string& tag) {
  Options options = cluster_options(stack);
  options.measure_us = 8'000'000;
  // Write-heavy with fat values so recovery is a genuine multi-chunk
  // streaming transfer; small chunks + a tight in-flight budget stretch
  // the transfer window the kills land in.
  options.get_fraction = 0.1;
  options.value_min_bytes = 512;
  options.value_max_bytes = 512;
  options.key_space = 4096;
  options.protocol.checkpoint_interval = 10;
  options.protocol.state_chunk_bytes = 8 * 1024;
  options.protocol.state_inflight_max_bytes = 32 * 1024;
  options.protocol.state_chunk_timeout_us = 100'000;

  LoopbackCluster cluster(options, tag);
  for (ReplicaId r = 0; r < 4; ++r) {
    ASSERT_TRUE(cluster.start_replica(r));
  }

  std::atomic<bool> chaos_ok{true};
  std::thread chaos([&] {
    // Let the healthy cluster commit past a checkpoint boundary before the
    // first kill, so every rebooted incarnation (a fresh process with empty
    // state) has a stable snapshot it *must* stream. Condition-driven, not
    // sleep-driven: sanitizer builds run an order of magnitude slower and
    // fixed sleeps would land the kills before any checkpoint exists.
    const SeqNum boundary = 2 * options.protocol.checkpoint_interval;
    if (!wait_for([&] { return cluster.node(0).last_executed() >= boundary; },
                  30'000)) {
      chaos_ok.store(false);
      return;
    }
    cluster.stop_replica(3);  // misses >= 1 checkpoint while down
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (!cluster.start_replica(3)) {
      chaos_ok.store(false);
      return;
    }
    // Once the transfer is verifiably in flight, kill a serving peer out
    // from under it: its outstanding ranges must time out and refetch.
    (void)wait_for(
        [&] { return cluster.node(3).state_transfer_stats().chunks_accepted > 0; },
        15'000);
    cluster.stop_replica(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (!cluster.start_replica(2)) {
      chaos_ok.store(false);
      return;
    }
    // Kill the recovering replica itself (mid-transfer or just after: a
    // fresh process must redo the verified fetch from scratch either way).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cluster.stop_replica(3);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (!cluster.start_replica(3)) {
      chaos_ok.store(false);
    }
  });

  const Report report = cluster.run_loadgen();
  chaos.join();
  ASSERT_TRUE(chaos_ok.load());
  // No `sustained` assertion: while replica 2 is down AND replica 3 is
  // still behind, only 2 < 2f+1 current replicas remain and commits may
  // legitimately stall until recovery completes.
  EXPECT_GT(report.completed_ops, 0u);

  // Once traffic stops, sequence numbers committed above the newest stable
  // checkpoint are not retransmitted to a late joiner (the frontier can run
  // up to the watermark window past the stable point with only two replicas
  // executing), so the guaranteed recovery property is convergence to the
  // newest *stable* checkpoint: a verified streaming transfer must carry
  // every casualty at least that far, and it must not be stuck fetching.
  const bool converged = wait_for(
      [&] {
        const SeqNum stable = std::max(cluster.node(0).last_stable(),
                                       cluster.node(1).last_stable());
        return stable > 0 && !cluster.node(2).awaiting_state() &&
               !cluster.node(3).awaiting_state() &&
               cluster.node(2).last_executed() >= stable &&
               cluster.node(3).last_executed() >= stable;
      },
      // Generous: under a sanitizer with the full suite competing for
      // cores, the five processes of this cluster run heavily starved.
      120'000);
  EXPECT_TRUE(converged)
      << "frontier=" << cluster.node(0).last_executed()
      << " stable=" << cluster.node(0).last_stable()
      << " r2=" << cluster.node(2).last_executed()
      << " r2_awaiting=" << cluster.node(2).awaiting_state()
      << " r2_accepted=" << cluster.node(2).state_transfer_stats().chunks_accepted
      << " r3=" << cluster.node(3).last_executed()
      << " r3_awaiting=" << cluster.node(3).awaiting_state()
      << " r3_accepted=" << cluster.node(3).state_transfer_stats().chunks_accepted;
  EXPECT_GT(cluster.node(0).last_executed(), 0u);

  // Replica 3's final incarnation started from an empty state mid-run: it
  // must have streamed a verified snapshot, not replayed from seq 1.
  const pbft::StateTransferStats stats = cluster.node(3).state_transfer_stats();
  EXPECT_GE(stats.transfers_completed, 1u);
  EXPECT_GT(stats.chunks_accepted, 0u);
  EXPECT_GT(cluster.node(3).transport().stats().state_frames_in, 0u);
  EXPECT_GT(cluster.node(0).transport().stats().state_frames_out +
                cluster.node(1).transport().stats().state_frames_out,
            0u);
}

TEST(TcpCluster, PbftRecoversThroughMidTransferKills) {
  run_with_mid_transfer_kills(Stack::Pbft, "pbft_xfer");
}

TEST(TcpCluster, SplitbftRecoversThroughMidTransferKills) {
  run_with_mid_transfer_kills(Stack::Splitbft, "split_xfer");
}

// Sharded loopback: two independent 4-replica groups + one loadgen whose
// clients are shard routers, over real unix-domain sockets. A replica of
// shard 1 is killed and restarted mid-run (2PC participants keep voting
// on the remaining 2f+1), and the run ends with the torn-write audit
// reading every multi-op group back through the protocol.
void run_sharded_loopback(Stack stack, const std::string& tag) {
  Options options = cluster_options(stack);
  options.clients = 32;
  options.shards = 2;
  options.cross_shard_fraction = 0.2;
  options.multi_keys = 2;
  options.multi_groups = 12;
  options.key_space = 512;

  std::vector<std::string> flat_addrs;
  for (std::uint32_t node = 0; node < options.shards * 5; ++node) {
    flat_addrs.push_back("unix:/tmp/sbft_" + tag + "_" +
                         std::to_string(::getpid()) + "_" +
                         std::to_string(node) + ".sock");
  }
  const auto topologies =
      sharded_topologies(options.shards, 4, 1, flat_addrs);

  // nodes[s][r]: each shard's replicas run from that shard's derived
  // seed, exactly as separate processes launched by run_cluster.py would.
  std::vector<std::vector<std::unique_ptr<ReplicaNode>>> nodes(
      options.shards);
  const auto start_replica = [&](std::uint32_t s, ReplicaId r) {
    nodes[s][r] = std::make_unique<ReplicaNode>(
        shard_options(options, s), topologies[s], r, fast_reconnect());
    return nodes[s][r]->start();
  };
  for (std::uint32_t s = 0; s < options.shards; ++s) {
    nodes[s].resize(4);
    for (ReplicaId r = 0; r < 4; ++r) {
      ASSERT_TRUE(start_replica(s, r));
    }
  }

  std::atomic<bool> done{false};
  std::atomic<bool> restart_ok{true};
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (done.load()) return;
    nodes[1][3].reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (done.load()) return;
    restart_ok.store(start_replica(1, 3));
  });

  const Report report =
      run_tcp_workload(options, topologies, 0, fast_reconnect());
  done.store(true);
  chaos.join();
  EXPECT_TRUE(restart_ok.load());

  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
  EXPECT_GT(report.sharding.multi_ops, 0u);
  EXPECT_GT(report.sharding.cross_shard_tx, 0u);
  EXPECT_GT(report.sharding.tx_commits, 0u);
  // The audit read every group back over the sockets: no torn writes.
  EXPECT_EQ(report.sharding.groups_checked, options.multi_groups);
  EXPECT_EQ(report.sharding.torn_groups, 0u);
  EXPECT_GT(report.transport.frames_out, 0u);
}

TEST(TcpShardedCluster, PbftCrossShardLoadStaysAtomicThroughRestart) {
  run_sharded_loopback(Stack::Pbft, "shpbft");
}

TEST(TcpShardedCluster, SplitbftCrossShardLoadStaysAtomicThroughRestart) {
  run_sharded_loopback(Stack::Splitbft, "shsplit");
}

TEST(TcpShardedCluster, TopologySlicingAndShardSeeds) {
  std::vector<std::string> flat_addrs;
  for (int node = 0; node < 12; ++node) {
    flat_addrs.push_back("host:" + std::to_string(18000 + node));
  }
  const auto topologies = sharded_topologies(2, 4, 2, flat_addrs);
  ASSERT_EQ(topologies.size(), 2u);
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(topologies[s].replicas, 4u);
    EXPECT_EQ(topologies[s].loadgens, 2u);
    ASSERT_EQ(topologies[s].addrs.size(), 6u);
    for (std::uint32_t node = 0; node < 6; ++node) {
      EXPECT_EQ(topologies[s].addrs[node], flat_addrs[s * 6 + node]);
    }
  }

  Options options;
  options.seed = 42;
  options.shards = 2;
  const Options s0 = shard_options(options, 0);
  const Options s1 = shard_options(options, 1);
  EXPECT_NE(s0.seed, s1.seed);
  EXPECT_NE(s0.seed, options.seed);  // shard 0 is not the raw seed
  EXPECT_EQ(s0.seed, shard_options(options, 0).seed);  // deterministic

  // One group keeps the deployment seed, so a one-group loadgen derives
  // the same keys as replicas and tools that use the raw seed.
  options.shards = 1;
  EXPECT_EQ(shard_options(options, 0).seed, options.seed);
}

TEST(TcpCluster, RouteMapsEveryPrincipalToItsHost) {
  ClusterTopology topology;
  topology.replicas = 4;
  topology.loadgens = 2;
  const auto route = topology.route();
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_EQ(route(principal::pbft_replica(r)), r);
    EXPECT_EQ(route(principal::splitbft_env(r)), r);
    for (const Compartment c :
         {Compartment::Preparation, Compartment::Confirmation,
          Compartment::Execution}) {
      EXPECT_EQ(route(principal::enclave({r, c})), r);
    }
  }
  // Clients round-robin across the loadgen nodes.
  EXPECT_EQ(route(principal::client(kFirstClientId)), 4u);
  EXPECT_EQ(route(principal::client(kFirstClientId + 1)), 5u);
  EXPECT_EQ(route(principal::client(kFirstClientId + 2)), 4u);
}

}  // namespace
}  // namespace sbft::runtime::workload
