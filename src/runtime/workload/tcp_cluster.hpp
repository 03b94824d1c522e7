// Multi-process cluster assembly over the real TCP transport.
//
// A deployment is `shards` independent groups; each group is
// `replicas + loadgens` NODES, each one TcpTransport instance (usually one
// process, but tests host several nodes in-process — the sockets are real
// either way). Node ids are positional within a group:
//
//   nodes [0, replicas)                     replica hosts
//   nodes [replicas, replicas + loadgens)   load generators
//
// `ClusterTopology::route()` maps every principal to its host node; all
// processes derive identical keys from the shared seed (`SeededReplica`,
// `shard_options`), so no key-distribution channel is needed — this is a
// benchmark harness, not a PKI.
//
//  * `ReplicaNode` serves one `SeededReplica` of either stack behind a
//    transport endpoint plus a 500µs protocol ticker thread.
//  * `run_tcp_workload` is the loadgen side: the wall-clock stations
//    (runtime/workload/station.hpp) over one transport per group, every
//    client a shard router, reporting the same JSON `Report` schema as the
//    sim/thread drivers plus the transport counters.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/tcp_transport.hpp"
#include "pbft/client.hpp"
#include "pbft/state_transfer.hpp"
#include "runtime/workload/workload.hpp"
#include "splitbft/client.hpp"

namespace sbft::pbft {
class Replica;
}  // namespace sbft::pbft
namespace sbft::splitbft {
class SplitbftReplica;
}  // namespace sbft::splitbft

namespace sbft::runtime::workload {

struct ClusterTopology {
  std::uint32_t replicas{4};
  std::uint32_t loadgens{1};
  /// Listen address per node (size == replicas + loadgens):
  /// "host:port" or "unix:/path".
  std::vector<std::string> addrs;

  [[nodiscard]] std::uint32_t nodes() const noexcept {
    return replicas + loadgens;
  }

  /// The node hosting a principal. Clients round-robin over loadgens;
  /// a replica's every principal (PBFT replica, SplitBFT broker and
  /// enclaves) lives on its node.
  [[nodiscard]] std::uint32_t node_of(principal::Id id) const noexcept;

  /// route() for TcpTransport (a pure function of the counts above).
  [[nodiscard]] net::TcpTransport::RouteFn route() const;

  /// Transport for node `node`, listening on its topology address with
  /// every other node declared as a peer.
  [[nodiscard]] std::unique_ptr<net::TcpTransport> make_transport(
      std::uint32_t node, net::TcpTransport::Options options = {}) const;
};

/// One replica of either stack, assembled from the deployment seed alone:
/// every process of a deployment, and the thread driver's in-process
/// cluster, derives identical keys, so nothing is exchanged out of band.
/// Transport handlers and a ticker may call in from different threads; a
/// mutex serializes them.
class SeededReplica {
 public:
  /// `options` carries the stack, seed, protocol config and worker count.
  /// SplitBFT sessions are pre-installed out of band (see
  /// workload::session_key) for the `options.clients` load clients plus
  /// the audit verifiers of up to `loadgens` load generators.
  SeededReplica(const Options& options, ReplicaId replica,
                std::uint32_t loadgens);
  ~SeededReplica();
  SeededReplica(const SeededReplica&) = delete;
  SeededReplica& operator=(const SeededReplica&) = delete;

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now);
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now);
  /// The principals this replica answers for (the PBFT replica, or the
  /// SplitBFT broker and its three enclaves).
  [[nodiscard]] std::vector<principal::Id> principals() const;

  [[nodiscard]] std::uint64_t admission_rejects() const;
  /// Recovery introspection (mid-transfer kill tests, bench): the engine's
  /// execution frontier and its state-transfer counters.
  [[nodiscard]] SeqNum last_executed() const;
  [[nodiscard]] SeqNum last_stable() const;
  [[nodiscard]] bool awaiting_state() const;
  [[nodiscard]] pbft::StateTransferStats state_transfer_stats() const;

 private:
  ReplicaId replica_;
  mutable std::mutex mutex_;
  std::unique_ptr<pbft::Replica> pbft_;
  std::shared_ptr<splitbft::SplitbftReplica> split_;
};

/// The client side of SeededReplica: each group's client directory, trust
/// anchors and session keys, derived from that group's seed
/// (`shard_options`), so client engines match the group's replicas.
class SeededClients {
 public:
  SeededClients(const Options& options, std::uint32_t groups);

  /// Client `id`'s engines, one per group. `Engine` is pbft::Client or
  /// splitbft::SplitClient, matching `options.stack`.
  template <typename Engine>
  [[nodiscard]] std::vector<std::unique_ptr<Engine>> engines(
      ClientId id) const {
    constexpr Micros kRetryUs = 2'000'000;
    std::vector<std::unique_ptr<Engine>> out;
    for (std::size_t g = 0; g < seeds_.size(); ++g) {
      if constexpr (std::is_same_v<Engine, pbft::Client>) {
        out.push_back(
            std::make_unique<Engine>(config_, id, directory_, kRetryUs));
      } else {
        auto engine = std::make_unique<Engine>(config_, id, directory_,
                                               anchors_[g], seeds_[g],
                                               kRetryUs);
        engine->adopt_session(session_key(seeds_[g], id));
        out.push_back(std::move(engine));
      }
    }
    return out;
  }

 private:
  pbft::Config config_;
  pbft::ClientDirectory directory_;
  std::vector<std::uint64_t> seeds_;
  std::vector<splitbft::SplitClient::TrustAnchors> anchors_;
};

/// One replica host: a SeededReplica + transport + ticker thread.
class ReplicaNode : public SeededReplica {
 public:
  ReplicaNode(const Options& options, const ClusterTopology& topology,
              ReplicaId replica, net::TcpTransport::Options transport_options);
  ~ReplicaNode();

  /// Binds, registers endpoints and starts the ticker. False on bind
  /// errors (see transport().last_error()).
  [[nodiscard]] bool start();
  void stop();

  [[nodiscard]] net::TcpTransport& transport() noexcept { return *transport_; }

 private:
  void ticker_main();

  std::unique_ptr<net::TcpTransport> transport_;
  std::atomic<bool> running_{false};
  std::thread ticker_;
};

// ------------------------------------------------------------- sharding
//
// A deployment of `shards` groups shares one flat address plan: shard
// `s`'s nodes occupy the contiguous block starting at
// `s * (replicas + loadgens)`. Replica processes join ONE shard (their
// topology slice, with `shard_options`' seed); loadgen processes open one
// transport per shard, because the shards' principal id spaces coincide
// and only the socket tells them apart. One group is the plan's first
// block.

/// Slices a flat `shards * (replicas + loadgens)` address plan into one
/// topology per shard.
[[nodiscard]] std::vector<ClusterTopology> sharded_topologies(
    std::uint32_t shards, std::uint32_t replicas, std::uint32_t loadgens,
    const std::vector<std::string>& flat_addrs);

/// Per-shard effective options. With one group (`options.shards <= 1`)
/// they are `options` unchanged; with more, the seed is replaced by
/// `shard::shard_seed(seed, shard)`, so each group's replica processes and
/// the loadgen's per-shard client engines derive that group's key material
/// independently, with no distribution channel.
[[nodiscard]] Options shard_options(Options options, std::uint32_t shard);

/// Runs the workload from loadgen node `replicas + loadgen_index` of every
/// shard (`topologies[s]` is shard `s`; its size must equal
/// `options.shards`). This process drives every client with
/// `id % loadgens == loadgen_index`, each a `shard::Router` over one engine
/// per shard: single-key ops go to their home group, cross-shard
/// `MultiOp`s run 2PC-over-BFT. Blocks for warmup + measure; when
/// `options.cross_shard_fraction > 0` the run then ends with the torn-write
/// audit (results in `Report::sharding`). Transport counters are summed
/// over the shards.
[[nodiscard]] Report run_tcp_workload(
    const Options& options, const std::vector<ClusterTopology>& topologies,
    std::uint32_t loadgen_index,
    net::TcpTransport::Options transport_options = {});

}  // namespace sbft::runtime::workload
