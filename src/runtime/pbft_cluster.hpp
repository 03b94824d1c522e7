// Test/bench helper: a full PBFT cluster on the simulation harness.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apps/app.hpp"
#include "crypto/keyring.hpp"
#include "pbft/client.hpp"
#include "pbft/replica.hpp"
#include "runtime/sim_harness.hpp"

namespace sbft::runtime {

/// Adapts a pbft::Replica to the Actor interface.
class PbftReplicaActor final : public Actor {
 public:
  explicit PbftReplicaActor(std::unique_ptr<pbft::Replica> replica)
      : replica_(std::move(replica)) {}

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override {
    return replica_->handle(env, now);
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override {
    return replica_->tick(now);
  }
  [[nodiscard]] pbft::Replica& replica() noexcept { return *replica_; }

 private:
  std::unique_ptr<pbft::Replica> replica_;
};

/// Adapts a pbft::Client; completed results are queued for the test to read.
class PbftClientActor final : public Actor {
 public:
  PbftClientActor(pbft::Config config, ClientId id,
                  const pbft::ClientDirectory& directory)
      : client_(config, id, directory) {}

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override {
    std::vector<net::Envelope> out;
    if (auto result = client_.on_reply(env, now, out)) {
      results_.push_back(std::move(*result));
    }
    return out;
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override {
    return client_.tick(now);
  }

  [[nodiscard]] pbft::Client& client() noexcept { return client_; }
  [[nodiscard]] const std::vector<Bytes>& results() const noexcept {
    return results_;
  }

 private:
  pbft::Client client_;
  std::vector<Bytes> results_;
};

struct PbftClusterOptions {
  pbft::Config config{};
  std::uint64_t seed{1};
  crypto::Scheme scheme{crypto::Scheme::HmacShared};
  sim::LinkParams link_params{};
  std::uint64_t client_master_secret{0x5ec7e7};
  /// Staged execution-runner workers per replica: 0 or 1 = serial
  /// SyncOrderedRunner (reference path), N >= 2 = SpinOrderedRunner with N
  /// threads. Output is byte-identical either way; the parallel runner is
  /// safe under the sim because replicas drain it before returning.
  std::size_t exec_workers{0};
};

/// Builds n replicas + any number of clients on a SimHarness.
class PbftCluster {
 public:
  PbftCluster(PbftClusterOptions options, apps::AppFactory app_factory);

  [[nodiscard]] pbft::Replica& replica(ReplicaId r) {
    return replicas_.at(r)->replica();
  }
  [[nodiscard]] std::shared_ptr<PbftReplicaActor> replica_actor(ReplicaId r) {
    return replicas_.at(r);
  }
  [[nodiscard]] PbftClientActor& client(ClientId c) { return *clients_.at(c); }

  /// Adds a client actor (id must be >= kFirstClientId).
  void add_client(ClientId id);

  /// Runs one operation to completion in simulated time.
  /// Returns the reply payload, or nullopt on (simulated) timeout.
  [[nodiscard]] std::optional<Bytes> execute(ClientId id, Bytes operation,
                                             Micros timeout_us = 10'000'000);

  /// Like execute(), but submits as a read-only request — the fast path
  /// when Config::read_path is on, falling back to ordering as the
  /// protocol dictates.
  [[nodiscard]] std::optional<Bytes> execute_read(
      ClientId id, Bytes operation, Micros timeout_us = 10'000'000);

  /// Detaches a replica from the network (crash fault) by replacing its
  /// handler with a sink. The Replica object stays inspectable.
  void crash_replica(ReplicaId r);

  /// Reattaches a previously crashed replica (recovery). The replica missed
  /// all traffic while down and must catch up via state transfer.
  void restore_replica(ReplicaId r);

  /// Verifies that no two replicas executed different batches at the same
  /// sequence number. Returns true when agreement holds.
  [[nodiscard]] bool check_agreement() const;

  [[nodiscard]] SimHarness& harness() noexcept { return harness_; }
  [[nodiscard]] const pbft::Config& config() const noexcept {
    return options_.config;
  }
  [[nodiscard]] const pbft::ClientDirectory& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] const crypto::KeyRing& keyring() const noexcept {
    return keyring_;
  }

 private:
  [[nodiscard]] std::optional<Bytes> execute_impl(ClientId id, Bytes operation,
                                                  bool read_only,
                                                  Micros timeout_us);

  PbftClusterOptions options_;
  SimHarness harness_;
  crypto::KeyRing keyring_;
  pbft::ClientDirectory directory_;
  std::vector<std::shared_ptr<PbftReplicaActor>> replicas_;
  std::unordered_map<ClientId, std::shared_ptr<PbftClientActor>> clients_;
};

}  // namespace sbft::runtime
