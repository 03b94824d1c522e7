// The untrusted broker (paper §5 "Untrusted broker").
//
// Lives in the environment of a replica and performs ALL I/O for the three
// enclaves: receives network traffic and routes/duplicates it to the right
// compartments (ecalls), ships enclave outputs to the network, batches
// client requests, and runs the liveness timers (request suspicion → the
// Confirmation enclave's view-change trigger). Compromising the broker can
// cost liveness but never safety or confidentiality — the byzantine-
// environment tests in tests/splitbft exercise exactly that.
#pragma once

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "net/auth.hpp"
#include "pbft/config.hpp"
#include "pbft/messages.hpp"
#include "runtime/actor.hpp"
#include "runtime/runner/tuning.hpp"
#include "splitbft/messages.hpp"
#include "tee/enclave_host.hpp"

namespace sbft::splitbft {

class Broker final : public runtime::Actor {
 public:
  Broker(pbft::Config config, ReplicaId self,
         std::unique_ptr<tee::EnclaveHost> prep,
         std::unique_ptr<tee::EnclaveHost> conf,
         std::unique_ptr<tee::EnclaveHost> exec);

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override;
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override;

  [[nodiscard]] ReplicaId id() const noexcept { return self_; }
  [[nodiscard]] tee::EnclaveHost& host(Compartment c) noexcept;
  [[nodiscard]] const tee::EnclaveHost& host(Compartment c) const noexcept;

  /// Enables broker-side pre-verification of inbound wire messages:
  /// envelopes whose signature fails under the expected enclave principal
  /// are dropped before paying an ecall. Liveness-only filtering on public
  /// material — the enclaves keep their own in-enclave caches and remain
  /// authoritative (an untrusted broker's cache must never be trusted).
  void enable_ingress_filter(
      std::shared_ptr<const crypto::Verifier> verifier);
  /// Filter cache, if enabled (counters for tests/benchmarks).
  [[nodiscard]] const net::VerifyCache* ingress_cache() const noexcept {
    return ingress_.get();
  }
  /// Fresh requests shed by admission control
  /// (Config::admission_queue_cap over the outstanding-request backlog).
  [[nodiscard]] std::uint64_t admission_rejects() const noexcept {
    return admission_rejects_;
  }
  [[nodiscard]] const runtime::runner::AutoTuner* tuner() const noexcept {
    return tuner_.get();
  }
  /// Live view of the (possibly auto-tuned) batching knobs.
  [[nodiscard]] const pbft::Config& config() const noexcept {
    return config_;
  }
  /// Queued liveness state (GC/overload bounds tests): requests waiting in
  /// the batch buffer and reads waiting for coalescing.
  [[nodiscard]] std::size_t pending_batch_size() const noexcept {
    return pending_batch_.size();
  }
  [[nodiscard]] std::size_t pending_read_count() const noexcept {
    return pending_reads_.size();
  }
  [[nodiscard]] std::size_t outstanding_count() const noexcept {
    return outstanding_.size();
  }

 private:
  using Out = std::vector<net::Envelope>;

  /// Ecalls into one compartment and queues/dispatches its outputs.
  void deliver_to(Compartment c, const net::Envelope& env, Out& out);
  /// Routes one envelope (network-arrived or enclave-emitted).
  void route(net::Envelope env, Out& out, Micros now);
  void on_client_request(const net::Envelope& env, Micros now, Out& out);
  void cut_batch(Micros now, Out& out);
  void on_read_request(const net::Envelope& env, Micros now, Out& out);
  /// Ships queued fast-path reads to the Execution enclave, coalesced up
  /// to Config::read_batch_max per ecall.
  void cut_read_batch(Micros now, Out& out);
  [[nodiscard]] bool is_local(principal::Id id,
                              Compartment& out_compartment) const noexcept;
  /// False iff the ingress filter is on and the envelope carries a
  /// signature that provably fails under the signer the protocol expects.
  [[nodiscard]] bool passes_ingress_filter(const net::Envelope& env);

  pbft::Config config_;
  ReplicaId self_;
  std::unique_ptr<tee::EnclaveHost> prep_;
  std::unique_ptr<tee::EnclaveHost> conf_;
  std::unique_ptr<tee::EnclaveHost> exec_;
  std::unique_ptr<net::VerifyCache> ingress_;  // null = filter disabled
  // Self-tuning of the broker-owned batching knobs (batch_max /
  // read_batch_max; pipeline_depth lives in the Preparation enclave and is
  // untouched here). Untrusted liveness machinery, like everything else in
  // the broker — the enclaves re-validate all of it.
  std::unique_ptr<runtime::runner::AutoTuner> tuner_;
  std::uint64_t admission_rejects_{0};
  void observe_tuner(Micros now);

  // --- untrusted liveness state ---
  // Admitted requests are kept as their serialized bytes (the client
  // envelope's payload frame, shared, never parsed into an owning Request):
  // outstanding_ and pending_batch_ share one buffer per request, and a
  // batch is the length-prefixed concatenation of those bytes.
  struct Outstanding {
    SharedBytes request;
    Micros deadline{0};
    std::uint32_t backoff{1};  // doubles per expiry (PBFT-style timeouts)
  };

  std::map<std::pair<ClientId, Timestamp>, SharedBytes> pending_batch_;
  Micros batch_deadline_{0};
  // Fast-path reads waiting for coalesced delivery to Execution, as their
  // serialized bytes. Pure liveness state: the enclave re-authenticates
  // every read.
  std::deque<SharedBytes> pending_reads_;
  Micros read_batch_deadline_{0};
  // Suspicion timers + request copies for post-view-change re-proposal.
  // Ordered by (client, timestamp) on purpose: the requests one Reply
  // retires form a single key range, erased in O(log n + k). Do not
  // reorder the key or swap in a hashed container.
  std::map<std::pair<ClientId, Timestamp>, Outstanding> outstanding_;
  // Lower bound on every outstanding deadline: tick() skips the suspicion
  // walk while `now` is below it. Lowered on insert and recomputed by each
  // walk; a Reply's erase leaves it stale (too low), which costs at most
  // one walk that finds nothing due.
  Micros next_deadline_{std::numeric_limits<Micros>::max()};
  std::deque<net::Envelope> local_queue_;
  // Ecall argument buffer, reused across ecalls: each delivery writes the
  // envelope's wire image into it, so crossing the boundary allocates only
  // when a larger message than any before arrives.
  Bytes ecall_args_;
  // Set when the local Preparation enclave emits a NewView (it is the new
  // primary): outstanding requests are re-proposed right after.
  bool new_view_emitted_{false};

  void requeue_outstanding(Micros now, Out& out);
};

}  // namespace sbft::splitbft
