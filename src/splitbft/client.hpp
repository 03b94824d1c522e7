// SplitBFT client.
//
// Protocol (paper §4 step 1):
//  1. Attest the Execution (and Preparation) enclaves of every replica:
//     nonce-fresh quotes signed by the platform attestation root, carrying
//     the enclave's signing principal and X25519 key.
//  2. Provision one session key to all Execution enclaves, each copy sealed
//     under the pairwise X25519-derived wrap key.
//  3. Submit requests whose operation payload is AEAD-encrypted end-to-end
//     for the Execution compartment; the ordering layers and every
//     untrusted environment only ever see ciphertext.
//  4. Accept a result once f+1 replicas returned replies that decrypt to
//     the same plaintext (each replica encrypts under its own nonce
//     channel, so votes are compared after decryption).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "pbft/client_directory.hpp"
#include "pbft/config.hpp"
#include "pbft/messages.hpp"
#include "splitbft/messages.hpp"

namespace sbft::splitbft {

class SplitClient {
 public:
  struct TrustAnchors {
    crypto::Ed25519PublicKey attestation_root;
  };

  SplitClient(pbft::Config config, ClientId id,
              const pbft::ClientDirectory& directory, TrustAnchors anchors,
              std::uint64_t seed, Micros retry_timeout_us = 1'000'000);

  /// Starts session establishment: attestation requests to every replica's
  /// Execution enclave (and Preparation enclave, per the paper).
  [[nodiscard]] std::vector<net::Envelope> begin_session(Micros now);

  /// Feeds any non-Reply message (attestation reports, session acks).
  /// Returns follow-up envelopes (SessionInit after a valid report).
  [[nodiscard]] std::vector<net::Envelope> on_message(const net::Envelope& env,
                                                      Micros now);

  /// True once every Execution enclave acknowledged the session key.
  [[nodiscard]] bool session_ready() const noexcept {
    return acks_.size() >= config_.n;
  }

  /// Adopts a pre-established session (see ExecCompartment::install_session).
  void adopt_session(const crypto::Key32& key) {
    session_key_ = key;
    for (ReplicaId r = 0; r < config_.n; ++r) acks_.insert(r);
    session_retry_deadline_ = 0;
  }

  [[nodiscard]] const crypto::Key32& session_key() const noexcept {
    return session_key_;
  }
  [[nodiscard]] std::size_t ack_count() const noexcept { return acks_.size(); }

  /// Submits one operation (plaintext; encrypted internally). With
  /// `read_only` set (and Config::read_path on) the operation is broadcast
  /// as a ReadRequest served directly by the Execution compartments — a
  /// single round that bypasses the Preparation/Confirmation enclaves.
  [[nodiscard]] std::vector<net::Envelope> submit(Bytes operation, Micros now,
                                                  bool read_only = false);

  /// Feeds a Reply or ReadReply; returns the decrypted result once the
  /// in-flight operation completed (ordered: f+1 matching plaintexts;
  /// fast read: 2f+1 matching (digest, exec-seq) votes plus the designated
  /// responder's value). `out` receives the ordered re-broadcast when a
  /// fast read falls back on a reply mismatch.
  [[nodiscard]] std::optional<Bytes> on_reply(const net::Envelope& env,
                                              Micros now,
                                              std::vector<net::Envelope>& out);

  [[nodiscard]] std::vector<net::Envelope> tick(Micros now);
  [[nodiscard]] std::optional<Micros> next_deadline() const;
  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] ClientId id() const noexcept { return id_; }
  /// Reads completed via the fast path / reads that fell back to ordering.
  [[nodiscard]] std::uint64_t fast_reads() const noexcept {
    return fast_reads_;
  }
  [[nodiscard]] std::uint64_t read_fallbacks() const noexcept {
    return read_fallbacks_;
  }

 private:
  [[nodiscard]] std::vector<net::Envelope> broadcast_request() const;
  [[nodiscard]] std::optional<Bytes> on_read_reply(
      const net::Envelope& env, Micros now, std::vector<net::Envelope>& out);
  void fall_back(Micros now, std::vector<net::Envelope>& out);
  void finish() noexcept;
  void handle_attest_report(const net::Envelope& env,
                            std::vector<net::Envelope>& out);
  void handle_session_ack(const net::Envelope& env);

  pbft::Config config_;
  ClientId id_;
  crypto::HmacKey mac_key_;
  TrustAnchors anchors_;
  Rng rng_;
  Micros retry_timeout_us_;

  crypto::Key32 session_key_{};
  crypto::Key32 dh_secret_{};
  crypto::Key32 dh_public_{};
  bool dh_public_ready_{false};
  Bytes attest_nonce_;
  std::set<ReplicaId> session_inits_sent_;
  std::set<ReplicaId> acks_;
  Micros session_retry_deadline_{0};

  Timestamp timestamp_{0};
  /// The in-flight Request, serialized once; every broadcast and
  /// retransmission shares this frame.
  SharedBytes request_;
  bool in_flight_{false};
  Micros retry_deadline_{0};
  // Decrypted result -> voting replicas.
  std::map<Bytes, std::set<ReplicaId>> votes_;

  // --- read fast path ---
  bool fast_read_{false};
  Micros read_deadline_{0};
  using ReadKey = std::pair<Digest, SeqNum>;  // (plaintext digest, exec seq)
  std::map<ReadKey, std::set<ReplicaId>> read_votes_;
  std::map<ReadKey, Bytes> read_results_;  // digest-verified plaintexts
  std::set<ReplicaId> read_replied_;
  std::uint64_t fast_reads_{0};
  std::uint64_t read_fallbacks_{0};
};

}  // namespace sbft::splitbft
