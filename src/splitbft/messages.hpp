// SplitBFT-specific message formats.
//
// SplitBFT reuses the PBFT message family (Prepare, Commit, Checkpoint,
// ViewChange, NewView, Reply — see pbft/messages.hpp) but replaces the
// PrePrepare with a *header-signed* variant: the Preparation enclave signs
// only (view, seq, digest, sender), and the batch body rides alongside,
// bound by the digest. This lets the untrusted broker forward the full
// message to Preparation/Execution but strip the body for Confirmation —
// the paper's "this compartment only handles a hash of the request batch" —
// without invalidating the signature.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/keyring.hpp"
#include "net/auth.hpp"
#include "net/message.hpp"
#include "pbft/messages.hpp"

namespace sbft::splitbft {

/// Envelope type tags local to a replica (broker <-> enclaves, never wire).
enum class LocalMsg : std::uint32_t {
  /// Broker delivers a cut request batch to the Preparation enclave.
  Batch = 40,
  /// Broker suspicion timer fired; Confirmation may start a view change.
  SuspectPrimary = 41,
  /// Broker delivers coalesced fast-path reads (a serialized RequestBatch)
  /// to the Execution enclave — one ecall for up to read_batch_max reads.
  ReadBatch = 42,
  /// Broker tick forwarded to the Execution enclave (payload: u64 now in
  /// µs). Compartments are deliver-only and own no clock; streaming state
  /// transfer needs one for chunk re-request timeouts and StateRequest
  /// re-broadcast backoff.
  StateTick = 43,
};

[[nodiscard]] constexpr std::uint32_t tag(LocalMsg t) noexcept {
  return static_cast<std::uint32_t>(t);
}

/// AEAD nonce channels — each (key, channel, seq) triple must be unique.
namespace channels {
/// Client request payloads, seq = client timestamp.
inline constexpr std::uint32_t kRequest = 0x7e90;
/// Replies, one channel per replica (seq = timestamp).
inline constexpr std::uint32_t kReplyBase = 0x5000;
/// Session-key wrapping during SessionInit (seq = client id).
inline constexpr std::uint32_t kSessionWrap = 0x5e55;
/// Encrypted state transfer between Execution enclaves (seq = seq number).
inline constexpr std::uint32_t kState = 0x57a7;
/// Streaming state-transfer chunks (seq = chunk index); the key is
/// per-checkpoint (derived from the group key and the checkpoint seq), so
/// (key, channel, index) never repeats across checkpoints.
inline constexpr std::uint32_t kStateChunk = 0x57c4;
/// Fast-path read replies, one channel per replica (seq = timestamp).
/// Distinct from kReplyBase: the ordered fallback of the same timestamp
/// re-encrypts a possibly different value, so the two paths must never
/// share a nonce. Additionally, read replies are sealed under a key
/// DERIVED from (timestamp, exec_seq, replica): an untrusted broker
/// replaying a ReadRequest across a state change makes the enclave derive
/// a fresh key, so the deterministic nonce is never reused with different
/// plaintext.
inline constexpr std::uint32_t kReadReplyBase = 0x6e00;
}  // namespace channels

/// Marker reply sent when the Execution enclave had to execute a no-op
/// (missing session or corrupted operation).
[[nodiscard]] inline Bytes no_op_marker() { return to_bytes("<no-op>"); }

/// Read-vote digest over a read result PLAINTEXT. Fast-path read replies
/// are compared across replicas, but each replica encrypts its reply under
/// its own nonce channel — so replicas vote with a digest of the plaintext
/// instead. The digest is keyed with the client session key (domain
/// separated from every other HMAC use) so it leaks nothing about the
/// value to the untrusted environments relaying it.
[[nodiscard]] Digest read_result_digest(const crypto::Key32& session_key,
                                        Timestamp timestamp,
                                        ByteView plaintext);

/// Header-signed pre-prepare.
struct SplitPrePrepare {
  View view{0};
  SeqNum seq{0};
  Digest batch_digest;
  ReplicaId sender{0};
  /// Serialized RequestBatch; empty when stripped for Confirmation.
  Bytes batch;
  bool has_batch{false};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<SplitPrePrepare> deserialize(
      ByteView data);

  /// The byte string the Preparation enclave signs.
  [[nodiscard]] Bytes header_bytes() const;

  /// Returns a copy without the batch body (signature stays valid).
  [[nodiscard]] SplitPrePrepare stripped() const;

  /// stripped().serialize() of a serialized pre-prepare, read from its
  /// header without parsing or copying the batch; nullopt exactly where
  /// deserialize() fails.
  [[nodiscard]] static std::optional<Bytes> strip_payload(ByteView data);
};

/// Builds the sign-once fan-out prototype: one envelope from this enclave,
/// signed over (type || payload), dst left 0. Broadcast loops copy it and
/// rewrite dst — every copy shares the payload/signature frames, so an
/// N-way enclave broadcast costs one signature and O(1) allocations.
[[nodiscard]] net::Envelope make_signed_proto(const crypto::Signer& signer,
                                              std::uint32_t type,
                                              SharedBytes payload);

/// Signs/verifies a SplitPrePrepare envelope (header-only signature).
[[nodiscard]] net::Envelope make_pre_prepare_envelope(
    const SplitPrePrepare& pp, const crypto::Signer& signer,
    principal::Id dst);
[[nodiscard]] bool verify_pre_prepare_envelope(
    const net::Envelope& env, const SplitPrePrepare& pp,
    const crypto::Verifier& verifier, principal::Id signer);
/// Cache-backed variant (header signatures recur across NewView proofs and
/// duplicated compartment inputs).
[[nodiscard]] bool verify_pre_prepare_envelope(const net::Envelope& env,
                                               const SplitPrePrepare& pp,
                                               net::VerifyCache& cache,
                                               principal::Id signer);

// ---------------------------------------------------------------- sessions

/// Client asks an enclave to prove its identity. The nonce prevents quote
/// replay.
struct AttestRequest {
  ClientId client{0};
  Bytes nonce;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<AttestRequest> deserialize(ByteView data);
};

/// Quote + the enclave's public keys, echoing the client nonce inside the
/// quote's report data.
struct AttestReport {
  ReplicaId replica{0};
  Compartment compartment{Compartment::Execution};
  Bytes quote;  // serialized tee::Quote

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<AttestReport> deserialize(ByteView data);
};

/// Report data embedded in a quote: signing key id + X25519 public key +
/// client nonce.
struct ReportData {
  principal::Id signing_principal{0};
  crypto::Key32 dh_public{};
  Bytes nonce;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<ReportData> deserialize(ByteView data);
};

/// Client provisions its session key to one Execution enclave: the key is
/// sealed under the X25519 shared secret of (client ephemeral, enclave).
struct SessionInit {
  ClientId client{0};
  crypto::Key32 client_dh_public{};
  Bytes sealed_session_key;  // AEAD under the derived pairwise key
  Bytes auth;                // client HMAC over the above

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<SessionInit> deserialize(ByteView data);
  [[nodiscard]] Bytes auth_input() const;
};

struct SessionAck {
  ClientId client{0};
  ReplicaId replica{0};
  Bytes auth;  // HMAC under the freshly installed session key

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<SessionAck> deserialize(ByteView data);
  [[nodiscard]] Bytes auth_input() const;
};

// ----------------------------------------------------------- outbox codec

/// Enclave ecall results are serialized envelope lists — everything crossing
/// the enclave boundary is bytes, as with the SGX SDK. Encoding writes
/// every envelope's wire image into one buffer allocated once.
[[nodiscard]] Bytes encode_outbox(const std::vector<net::Envelope>& envs);
/// Decodes an ecall result held as one frame: every envelope is parsed in
/// place (Envelope::from_frame over a slice), so all of them share `data`'s
/// buffer and none of their bytes is copied. nullopt on a truncated,
/// overlong or malformed outbox.
[[nodiscard]] std::optional<std::vector<net::Envelope>> decode_outbox(
    SharedBytes data);


}  // namespace sbft::splitbft
