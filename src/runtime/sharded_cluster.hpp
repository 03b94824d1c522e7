// Test/bench helper: N independent BFT groups (PBFT or SplitBFT) driven
// in lockstep simulated time, with shard::Router clients spanning them.
//
// Each shard is a complete cluster on its own SimHarness with its own
// seed-derived key material (`shard::shard_seed`) — shards never
// exchange messages, so their identical principal id spaces cannot
// collide. All cross-shard coordination is client-driven: a router
// client registers a port actor in every group's harness; replies
// surfacing in group `s` feed `Router::on_reply(s, ...)`, and any
// follow-up traffic the coordinator emits for other shards is injected
// into those harnesses. Groups advance in small lockstep quanta so the
// shards share one virtual timeline (cross-shard skew is bounded by the
// quantum, far below the simulated link latency).
#pragma once

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/ledger.hpp"
#include "pbft/messages.hpp"
#include "runtime/pbft_cluster.hpp"
#include "runtime/splitbft_cluster.hpp"
#include "runtime/workload/workload.hpp"
#include "shard/router.hpp"

namespace sbft::runtime {

/// Application every group replicates. The shard layer is the KV store's
/// scale-out story; Ledger is the paper's blockchain workload (opaque
/// transactions, one block per 5) and one chain, so it runs on a single
/// group only.
enum class App { KvStore, Ledger };

struct ShardedClusterOptions {
  std::uint32_t shards{2};
  pbft::Config config{};
  std::uint64_t seed{1};
  sim::LinkParams link_params{};
  shard::RouterOptions router{};
  App app{App::KvStore};
};

/// Stack adapters for ShardedCluster: one group of the stack running
/// `options.app`, and one client engine for it.
struct PbftShardStack {
  using Cluster = PbftCluster;
  using Engine = pbft::Client;

  [[nodiscard]] static std::unique_ptr<Cluster> make_cluster(
      const ShardedClusterOptions& options, std::uint32_t shard) {
    PbftClusterOptions copts;
    copts.config = options.config;
    copts.seed = shard::shard_seed(options.seed, shard);
    copts.link_params = options.link_params;
    if (options.app == App::Ledger) {
      return std::make_unique<Cluster>(
          copts, [] { return std::make_unique<apps::Ledger>(5); });
    }
    return std::make_unique<Cluster>(
        copts, [] { return std::make_unique<apps::KvStore>(); });
  }

  [[nodiscard]] static std::unique_ptr<Engine> make_engine(
      Cluster& group, const ShardedClusterOptions& options,
      std::uint32_t shard, ClientId id, Micros retry_us) {
    (void)options;
    (void)shard;
    return std::make_unique<Engine>(group.config(), id, group.directory(),
                                    retry_us);
  }
};

struct SplitbftShardStack {
  using Cluster = SplitbftCluster;
  using Engine = splitbft::SplitClient;

  [[nodiscard]] static std::unique_ptr<Cluster> make_cluster(
      const ShardedClusterOptions& options, std::uint32_t shard) {
    SplitClusterOptions copts;
    copts.config = options.config;
    copts.seed = shard::shard_seed(options.seed, shard);
    copts.link_params = options.link_params;
    if (options.app == App::Ledger) {
      // Blocks leave the Execution enclave through the persist ocall.
      return std::make_unique<Cluster>(
          copts, [](splitbft::PersistHook persist) {
            return std::make_unique<apps::Ledger>(
                5, [persist](ByteView block) { persist(block); });
          });
    }
    return std::make_unique<Cluster>(
        copts,
        splitbft::plain_app([] { return std::make_unique<apps::KvStore>(); }));
  }

  [[nodiscard]] static std::unique_ptr<Engine> make_engine(
      Cluster& group, const ShardedClusterOptions& options,
      std::uint32_t shard, ClientId id, Micros retry_us) {
    const std::uint64_t group_seed = shard::shard_seed(options.seed, shard);
    splitbft::SplitClient::TrustAnchors anchors;
    anchors.attestation_root = group.attestation().root_public_key();
    auto engine = std::make_unique<Engine>(group.config(), id,
                                           group.directory(), anchors,
                                           group_seed, retry_us);
    // Sessions are provisioned out of band from the shard's seed (the
    // same convention the workload drivers use): attestation is a
    // startup cost, not part of the sharding story under test.
    const crypto::Key32 session = workload::session_key(group_seed, id);
    engine->adopt_session(session);
    for (ReplicaId r = 0; r < group.config().n; ++r) {
      group.replica(r).exec_mutable().install_session(id, session);
    }
    return engine;
  }
};

template <typename Stack>
class ShardedCluster {
 public:
  using Cluster = typename Stack::Cluster;
  using Engine = typename Stack::Engine;
  using Router = shard::Router<Engine>;
  /// Completion callback: final result bytes + the local virtual time.
  using ResultFn = std::function<void(Bytes, Micros)>;

  explicit ShardedCluster(ShardedClusterOptions options)
      : options_(std::move(options)) {
    if (options_.app == App::Ledger && options_.shards > 1) {
      throw std::invalid_argument("Ledger groups cannot be sharded");
    }
    options_.router.shards = options_.shards;
    groups_.reserve(options_.shards);
    for (std::uint32_t s = 0; s < options_.shards; ++s) {
      groups_.push_back(Stack::make_cluster(options_, s));
    }
  }

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return options_.shards;
  }
  [[nodiscard]] Cluster& group(std::uint32_t s) { return *groups_.at(s); }
  [[nodiscard]] SimHarness& harness(std::uint32_t s) {
    return groups_.at(s)->harness();
  }
  [[nodiscard]] sim::Scheduler& scheduler() {
    return groups_[0]->harness().scheduler();
  }
  [[nodiscard]] Micros now() const { return groups_[0]->harness().now(); }
  [[nodiscard]] const ShardedClusterOptions& options() const noexcept {
    return options_;
  }

  /// Registers a router client across every shard. `on_result` (if set)
  /// observes every completion; results are also queued for execute().
  Router& add_client(ClientId id, Micros retry_us = 1'000'000,
                     ResultFn on_result = nullptr) {
    auto state = std::make_shared<ClientState>();
    state->owner = this;
    state->on_result = std::move(on_result);
    std::vector<std::unique_ptr<Engine>> engines;
    engines.reserve(options_.shards);
    for (std::uint32_t s = 0; s < options_.shards; ++s) {
      engines.push_back(
          Stack::make_engine(*groups_[s], options_, s, id, retry_us));
    }
    state->router =
        std::make_unique<Router>(std::move(engines), options_.router);
    for (std::uint32_t s = 0; s < options_.shards; ++s) {
      auto port = std::make_shared<Port>(state, s);
      if (s == 0) {
        groups_[s]->harness().add_actor(principal::client(id), port,
                                        kClientTickUs);
      } else {
        groups_[s]->harness().add_endpoint(principal::client(id), port);
      }
    }
    clients_.emplace(id, state);
    return *state->router;
  }

  [[nodiscard]] Router& router(ClientId id) {
    return *clients_.at(id)->router;
  }
  [[nodiscard]] const std::vector<Bytes>& results(ClientId id) const {
    return clients_.at(id)->results;
  }

  /// Submits an operation on a registered client at the current virtual
  /// time (the router must be idle).
  void submit(ClientId id, Bytes operation, bool read_only = false) {
    auto& state = *clients_.at(id);
    assert(!state.router->in_flight());
    dispatch(state.router->submit(std::move(operation), now(), read_only));
  }

  /// Coordinator crash: the client's ports go silent — in-flight 2PC
  /// traffic already injected keeps flowing, but no reply is processed
  /// and no further phase is driven.
  void crash_client(ClientId id) { clients_.at(id)->crashed = true; }

  /// Runs all groups forward in lockstep.
  void run_for(Micros duration) {
    Micros done = 0;
    while (done < duration) {
      const Micros step =
          std::min<Micros>(kLockstepQuantumUs, duration - done);
      for (auto& g : groups_) g->harness().run_for(step);
      done += step;
    }
  }

  /// Lockstep run_until: checks the predicate at quantum granularity.
  bool run_until(const std::function<bool()>& done, Micros max_sim_time) {
    Micros elapsed = 0;
    while (elapsed < max_sim_time) {
      if (done()) return true;
      for (auto& g : groups_) {
        g->harness().run_for(kLockstepQuantumUs);
      }
      elapsed += kLockstepQuantumUs;
    }
    return done();
  }

  /// Runs one operation to completion across all shards.
  [[nodiscard]] std::optional<Bytes> execute(ClientId id, Bytes operation,
                                             Micros timeout_us = 10'000'000,
                                             bool read_only = false) {
    auto state = clients_.at(id);
    const std::size_t base = state->results.size();
    submit(id, std::move(operation), read_only);
    if (!run_until([&] { return state->results.size() > base; },
                   timeout_us)) {
      return std::nullopt;
    }
    return state->results.back();
  }

  [[nodiscard]] std::optional<Bytes> execute_read(
      ClientId id, Bytes operation, Micros timeout_us = 10'000'000) {
    return execute(id, std::move(operation), timeout_us, /*read_only=*/true);
  }

  /// Typed KV helpers for tests.
  [[nodiscard]] std::optional<apps::KvStatus> put(ClientId id, ByteView key,
                                                  ByteView value) {
    const auto reply = execute(id, apps::kv::encode_put(key, value));
    if (!reply) return std::nullopt;
    const auto decoded = apps::kv::decode_reply(*reply);
    if (!decoded) return std::nullopt;
    return decoded->status;
  }
  [[nodiscard]] std::optional<apps::kv::Reply> get(ClientId id, ByteView key) {
    const auto reply = execute(id, apps::kv::encode_get(key));
    if (!reply) return std::nullopt;
    return apps::kv::decode_reply(*reply);
  }

  void crash_replica(std::uint32_t shard, ReplicaId r) {
    groups_.at(shard)->crash_replica(r);
  }
  void restore_replica(std::uint32_t shard, ReplicaId r) {
    groups_.at(shard)->restore_replica(r);
  }

  /// Agreement must hold inside every group.
  [[nodiscard]] bool check_agreement() const {
    for (const auto& g : groups_) {
      if (!g->check_agreement()) return false;
    }
    return true;
  }

 private:
  /// Lockstep step size: every group runs this much simulated time
  /// before any group runs further.
  static constexpr Micros kLockstepQuantumUs = 200;
  /// Router port tick interval (engine retransmission timers).
  static constexpr Micros kClientTickUs = 100'000;

  struct ClientState {
    ShardedCluster* owner{nullptr};
    std::unique_ptr<Router> router;
    std::vector<Bytes> results;
    ResultFn on_result;
    bool crashed{false};
  };

  /// Delivery + tick adapter for one (client, shard) pair. Only shard
  /// 0's port owns a tick loop — Router::tick covers every engine.
  class Port final : public Actor {
   public:
    Port(std::shared_ptr<ClientState> state, std::uint32_t shard)
        : state_(std::move(state)), shard_(shard) {}

    [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                    Micros now) override {
      auto& state = *state_;
      if (state.crashed) return {};
      if (env.type != pbft::tag(pbft::MsgType::Reply) &&
          env.type != pbft::tag(pbft::MsgType::ReadReply)) {
        return {};  // sessions are provisioned out of band
      }
      std::vector<shard::Routed> out;
      auto result = state.router->on_reply(shard_, env, now, out);
      if (result) {
        state.results.push_back(*result);
        if (state.on_result) state.on_result(*std::move(result), now);
      }
      return state.owner->partition(shard_, std::move(out));
    }

    [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override {
      auto& state = *state_;
      if (state.crashed) return {};
      return state.owner->partition(shard_, state.router->tick(now));
    }

   private:
    std::shared_ptr<ClientState> state_;
    std::uint32_t shard_;
  };

  /// Splits routed traffic: envelopes for `local_shard` return to its
  /// harness's dispatch loop; the rest are injected into their groups.
  [[nodiscard]] std::vector<net::Envelope> partition(
      std::uint32_t local_shard, std::vector<shard::Routed>&& routed) {
    std::vector<net::Envelope> local;
    std::map<std::uint32_t, std::vector<net::Envelope>> remote;
    for (auto& r : routed) {
      if (r.shard == local_shard) {
        local.push_back(std::move(r.env));
      } else {
        remote[r.shard].push_back(std::move(r.env));
      }
    }
    for (auto& [s, envs] : remote) groups_[s]->harness().inject(envs);
    return local;
  }

  void dispatch(std::vector<shard::Routed>&& routed) {
    std::map<std::uint32_t, std::vector<net::Envelope>> by_shard;
    for (auto& r : routed) by_shard[r.shard].push_back(std::move(r.env));
    for (auto& [s, envs] : by_shard) groups_[s]->harness().inject(envs);
  }

  ShardedClusterOptions options_;
  std::vector<std::unique_ptr<Cluster>> groups_;
  std::map<ClientId, std::shared_ptr<ClientState>> clients_;
};

using ShardedPbftCluster = ShardedCluster<PbftShardStack>;
using ShardedSplitbftCluster = ShardedCluster<SplitbftShardStack>;

}  // namespace sbft::runtime
