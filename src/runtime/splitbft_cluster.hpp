// Test/bench helper: a full SplitBFT cluster (n replicas × 3 enclaves +
// brokers + clients) on the simulation harness.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/keyring.hpp"
#include "runtime/sim_harness.hpp"
#include "splitbft/client.hpp"
#include "splitbft/replica.hpp"
#include "tee/attestation.hpp"
#include "tee/sealing.hpp"

namespace sbft::runtime {

/// Adapts a splitbft::SplitClient; completed results are queued for tests.
class SplitClientActor final : public Actor {
 public:
  SplitClientActor(pbft::Config config, ClientId id,
                   const pbft::ClientDirectory& directory,
                   splitbft::SplitClient::TrustAnchors anchors,
                   std::uint64_t seed)
      : client_(config, id, directory, anchors, seed) {}

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override {
    if (env.type == pbft::tag(pbft::MsgType::Reply) ||
        env.type == pbft::tag(pbft::MsgType::ReadReply)) {
      std::vector<net::Envelope> out;
      if (auto result = client_.on_reply(env, now, out)) {
        results_.push_back(std::move(*result));
      }
      return out;
    }
    return client_.on_message(env, now);
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override {
    return client_.tick(now);
  }

  [[nodiscard]] splitbft::SplitClient& client() noexcept { return client_; }
  [[nodiscard]] const std::vector<Bytes>& results() const noexcept {
    return results_;
  }

 private:
  splitbft::SplitClient client_;
  std::vector<Bytes> results_;
};

struct SplitClusterOptions {
  pbft::Config config{};
  std::uint64_t seed{1};
  crypto::Scheme scheme{crypto::Scheme::HmacShared};
  sim::LinkParams link_params{};
  tee::CostModel cost_model{tee::CostModel::sgx()};
  std::uint64_t client_master_secret{0x5ec7e7};
  /// Execution-compartment staged-runner workers (see
  /// PbftClusterOptions::exec_workers; <= 1 = serial reference path).
  std::size_t exec_workers{0};
  /// Per-replica byzantine-compartment injection. The decorator receives
  /// the enclave signer so attacks can craft validly signed messages.
  using DecoratorFactory = std::function<splitbft::LogicDecorator(
      ReplicaId r, const crypto::KeyRing& keyring)>;
  std::map<ReplicaId, DecoratorFactory> compartment_faults{};
};

class SplitbftCluster {
 public:
  SplitbftCluster(SplitClusterOptions options,
                  splitbft::ExecAppFactory app_factory);

  [[nodiscard]] splitbft::SplitbftReplica& replica(ReplicaId r) {
    return *replicas_.at(r);
  }
  [[nodiscard]] std::shared_ptr<splitbft::SplitbftReplica> replica_actor(
      ReplicaId r) {
    return replicas_.at(r);
  }
  [[nodiscard]] SplitClientActor& client(ClientId c) { return *clients_.at(c); }

  void add_client(ClientId id);

  /// Runs attestation + session setup for every registered client.
  /// Returns true when all sessions are established.
  [[nodiscard]] bool setup_sessions(Micros timeout_us = 30'000'000);

  /// Runs one operation to completion in simulated time.
  [[nodiscard]] std::optional<Bytes> execute(ClientId id, Bytes operation,
                                             Micros timeout_us = 20'000'000);

  /// Like execute(), but submits as a read-only request — the fast path
  /// when Config::read_path is on, falling back to ordering as the
  /// protocol dictates.
  [[nodiscard]] std::optional<Bytes> execute_read(
      ClientId id, Bytes operation, Micros timeout_us = 20'000'000);

  /// Crash the whole replica (environment + enclaves stop responding).
  void crash_replica(ReplicaId r);
  void restore_replica(ReplicaId r);

  /// Interposes a byzantine environment: `wrap` receives the honest replica
  /// actor and returns the adversarial wrapper that takes over all of this
  /// replica's principals (broker compromise — safety must survive).
  void interpose_env(
      ReplicaId r,
      const std::function<std::shared_ptr<Actor>(std::shared_ptr<Actor>)>&
          wrap);

  [[nodiscard]] const crypto::KeyRing& keyring() const noexcept {
    return keyring_;
  }

  /// Agreement: no two Execution enclaves executed different batch digests
  /// at the same sequence number.
  [[nodiscard]] bool check_agreement() const;

  [[nodiscard]] SimHarness& harness() noexcept { return harness_; }
  [[nodiscard]] const pbft::Config& config() const noexcept {
    return options_.config;
  }
  [[nodiscard]] const pbft::ClientDirectory& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] const tee::AttestationService& attestation() const noexcept {
    return attestation_;
  }
  [[nodiscard]] std::vector<principal::Id> replica_principals(
      ReplicaId r) const;

 private:
  [[nodiscard]] std::optional<Bytes> execute_impl(ClientId id, Bytes operation,
                                                  bool read_only,
                                                  Micros timeout_us);

  SplitClusterOptions options_;
  SimHarness harness_;
  crypto::KeyRing keyring_;
  pbft::ClientDirectory directory_;
  tee::AttestationService attestation_;
  tee::SealingService sealing_;
  std::vector<std::shared_ptr<splitbft::SplitbftReplica>> replicas_;
  std::unordered_map<ClientId, std::shared_ptr<SplitClientActor>> clients_;
};

}  // namespace sbft::runtime
