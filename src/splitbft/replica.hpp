// SplitBFT replica assembly: three compartment enclaves + untrusted broker.
//
// This is the per-machine deployment unit. It provisions the enclaves
// (keys, attestation hooks, protected-FS key from the platform sealing
// service), wires them into EnclaveHosts with the configured SGX cost
// model, and exposes the whole thing as a single Actor (the environment's
// network face).
#pragma once

#include <memory>

#include "crypto/keyring.hpp"
#include "pbft/client_directory.hpp"
#include "splitbft/broker.hpp"
#include "splitbft/conf_compartment.hpp"
#include "splitbft/enclave_adapter.hpp"
#include "splitbft/exec_compartment.hpp"
#include "splitbft/prep_compartment.hpp"
#include "tee/attestation.hpp"
#include "tee/cost_model.hpp"
#include "tee/protected_fs.hpp"
#include "tee/sealing.hpp"

namespace sbft::splitbft {

/// Fault-injection hook: wraps a freshly constructed compartment logic.
/// Models a compromised enclave of the given type on this replica (the
/// wrapper holds the enclave's key material and full control of its I/O).
using LogicDecorator = std::function<std::unique_ptr<CompartmentLogic>(
    Compartment type, std::unique_ptr<CompartmentLogic> inner)>;

struct ReplicaOptions {
  pbft::Config config{};
  tee::CostModel cost_model{tee::CostModel::sgx()};
  /// true: burn crossing costs as real CPU time (threaded runtime);
  /// false: account them virtually (simulator / benchmarks).
  bool charge_real_time{false};
  std::uint64_t client_master_secret{0x5ec7e7};
  /// Optional byzantine-compartment injection (tests only).
  LogicDecorator decorate_logic{};
  /// Broker-side pre-verification of inbound wire signatures (DoS defense;
  /// costs one extra verification per honest message, so default off).
  bool broker_ingress_filter{false};
  /// Staged execution pipeline inside the Execution enclave: 0 or 1 =
  /// serial SyncOrderedRunner (deterministic reference), N >= 2 = N
  /// SpinOrderedRunner worker threads sealing/signing replies and serving
  /// coalesced reads in parallel.
  std::size_t exec_workers{0};
};

class SplitbftReplica final : public runtime::Actor {
 public:
  /// `keyring` must already contain principals for the three enclaves of
  /// this replica (modeling attested key provisioning at deployment).
  /// `attestation` and `sealing` model the platform's trusted services and
  /// must outlive the replica.
  SplitbftReplica(ReplicaOptions options, ReplicaId id,
                  const crypto::KeyRing& keyring,
                  const tee::AttestationService& attestation,
                  const tee::SealingService& sealing,
                  crypto::Key32 exec_group_key, crypto::Key32 dh_secret,
                  ExecAppFactory app_factory);

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override {
    return broker_->handle(env, now);
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override {
    return broker_->tick(now);
  }

  [[nodiscard]] ReplicaId id() const noexcept { return id_; }
  [[nodiscard]] Broker& broker() noexcept { return *broker_; }

  // Test-only introspection into enclave state (impossible on real SGX).
  [[nodiscard]] const PrepCompartment& prep() const noexcept { return *prep_; }
  [[nodiscard]] const ConfCompartment& conf() const noexcept { return *conf_; }
  [[nodiscard]] const ExecCompartment& exec() const noexcept { return *exec_; }
  /// Provisioning access (session pre-installation in benchmarks).
  [[nodiscard]] ExecCompartment& exec_mutable() noexcept { return *exec_; }

  /// Untrusted persistent storage behind the protected FS (ledger blocks).
  [[nodiscard]] tee::MemoryBlockStore& block_store() noexcept {
    return block_store_;
  }

 private:
  ReplicaId id_;
  tee::MemoryBlockStore block_store_;
  // Non-owning views into the enclave-held logic (owned via the hosts).
  PrepCompartment* prep_{nullptr};
  ConfCompartment* conf_{nullptr};
  ExecCompartment* exec_{nullptr};
  std::unique_ptr<Broker> broker_;
};

}  // namespace sbft::splitbft
