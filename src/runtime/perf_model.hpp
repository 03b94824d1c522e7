// Virtual-time performance model.
//
// The correctness engines are exercised unmodified; what the model adds is
// RESOURCE OCCUPANCY: every message processed by a replica books service
// time on the threads that would do the work on real hardware, and the
// handler's outputs are released only when that service completes. Queueing
// delay, pipeline parallelism and thread saturation then emerge exactly as
// in a queueing network, and throughput/latency curves can be measured in
// virtual time — independent of the machine running the benchmark.
//
// The thread models mirror the paper's implementation (§6):
//  * PBFT:      4 crypto/serialization workers (tokio pool) + one serial
//               protocol thread.
//  * SplitBFT:  one broker (event-loop) thread + one ecall thread per
//               enclave; the "single thread" variant multiplexes all three
//               enclaves onto one ecall thread. Every ecall additionally
//               pays the SGX crossing cost from tee::CostModel (zero in
//               simulation mode).
//
// Service times are derived from a CostProfile of primitive costs
// (sign/verify/HMAC/AEAD/hash/serde/app). Its constants are hand-set to
// the absolute numbers the paper reports for its Azure DC4s_v2 testbed;
// they are not calibrated on the machine running the model.
#pragma once

#include <array>
#include <memory>

#include "net/auth.hpp"
#include "runtime/pbft_cluster.hpp"
#include "runtime/splitbft_cluster.hpp"
#include "tee/cost_model.hpp"

namespace sbft::runtime {

struct CostProfile {
  // Asymmetric crypto (paper: ring ED25519 on Azure DC4s_v2).
  double sign_us{28};
  double verify_us{62};
  // A VerifyCache hit replaces the full verification with a hash lookup.
  double verify_cached_us{0.6};
  // Symmetric crypto.
  double hmac_us{1.1};
  double aead_base_us{1.0};
  double aead_us_per_kib{2.0};
  double hash_base_us{0.5};
  double hash_us_per_kib{1.6};
  // Marshalling (Rust serde in the paper; generously charged).
  double serde_base_us{0.5};
  double serde_us_per_kib{2.2};
  // Application execution per operation.
  double app_op_us{1.6};
  // Protocol bookkeeping per agreement message (log insert, certificate
  // tracking); client-request buffering is charged 1 us instead.
  double proto_msg_us{28.0};
  // Broker routing per message (SplitBFT event loop; queue hand-off only).
  double broker_msg_us{1.5};
  // Ledger: protected-FS block write (Merkle update + AEAD + ocall),
  // charged per block — sgx_tprotected_fs writes are expensive.
  double block_io_us{115};

  // SGX crossing model (simulation() for the paper's simulation-mode line).
  tee::CostModel sgx{tee::CostModel::sgx()};
};

/// A serially-occupied processing unit (thread) in virtual time.
struct Resource {
  Micros busy_until{0};
  std::uint64_t total_busy_us{0};

  /// Books `service_us` starting no earlier than `ready`; returns the
  /// completion time.
  Micros book(Micros ready, Micros service_us) {
    const Micros start = std::max(ready, busy_until);
    busy_until = start + service_us;
    total_busy_us += service_us;
    return busy_until;
  }
};

/// Per-ecall accounting for Figure 4 (mean ecall time per compartment).
struct EcallAccounting {
  std::uint64_t calls{0};
  std::uint64_t total_us{0};
  [[nodiscard]] double mean_us() const noexcept {
    return calls ? static_cast<double>(total_us) / static_cast<double>(calls)
                 : 0.0;
  }
};

/// Wraps a SplitBFT replica actor with the enclave-thread model.
class SplitPerfActor final : public Actor {
 public:
  /// `exec_workers` models the Execution enclave's staged runner: when
  /// > 1, reply seal/MAC/serialize and fast-path read service round-robin
  /// across that many in-enclave worker threads while app execution stays
  /// serial on the ecall thread — mirroring SpinOrderedRunner in the
  /// threaded runtime. <= 1 keeps the fully serial ecall model.
  SplitPerfActor(SimHarness& harness, std::shared_ptr<Actor> inner,
                 CostProfile profile, bool single_ecall_thread,
                 std::size_t exec_workers = 0);

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override;
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override;

  [[nodiscard]] const EcallAccounting& ecall_stats(Compartment c) const {
    return ecall_stats_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const Resource& resource(Compartment c) const;

  /// Ledger workloads: polls the number of persisted blocks so each block
  /// write is charged its protected-FS ocall cost on the Execution thread.
  void set_block_counter(std::function<std::uint64_t()> fn) {
    blocks_fn_ = std::move(fn);
  }

  /// Wires a compartment's VerifyCache counters into the model: with a
  /// sampler set, that compartment's signature-verification service time is
  /// the MEASURED mix of cache misses (verify_us) and hits
  /// (verify_cached_us) from the real engine, instead of the static
  /// per-message-type estimate.
  void set_auth_stats(Compartment c, std::function<net::VerifyStats()> fn) {
    auth_fns_[static_cast<std::size_t>(c)] = std::move(fn);
  }

 private:
  [[nodiscard]] Resource& resource_for(Compartment c);
  void release(std::vector<net::Envelope> outs, Micros at);

  SimHarness& harness_;
  std::shared_ptr<Actor> inner_;
  CostProfile profile_;
  bool single_thread_;
  std::function<std::uint64_t()> blocks_fn_;
  std::array<std::function<net::VerifyStats()>, kNumCompartments> auth_fns_{};
  Resource broker_;
  std::array<Resource, kNumCompartments> enclaves_;  // [prep, conf, exec]
  Resource shared_ecall_;                            // single-thread variant
  // Staged-runner workers inside the Execution enclave (empty = serial).
  std::vector<Resource> exec_workers_;
  std::array<EcallAccounting, kNumCompartments> ecall_stats_{};
};

/// Wraps a PBFT replica actor with the worker-pool + protocol-thread model.
class PbftPerfActor final : public Actor {
 public:
  PbftPerfActor(SimHarness& harness, std::shared_ptr<Actor> inner,
                CostProfile profile, std::size_t workers = 4);

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override;
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override;

  /// Ledger workloads: plain (non-enclave) block persistence cost.
  void set_block_counter(std::function<std::uint64_t()> fn) {
    blocks_fn_ = std::move(fn);
  }

  /// Wires the replica's VerifyCache counters into the model (see
  /// SplitPerfActor::set_auth_stats).
  void set_auth_stats(std::function<net::VerifyStats()> fn) {
    auth_fn_ = std::move(fn);
  }

 private:
  void release(std::vector<net::Envelope> outs, Micros at);

  SimHarness& harness_;
  std::shared_ptr<Actor> inner_;
  CostProfile profile_;
  std::function<std::uint64_t()> blocks_fn_;
  std::function<net::VerifyStats()> auth_fn_;
  std::vector<Resource> workers_;
  Resource protocol_;
};

}  // namespace sbft::runtime
