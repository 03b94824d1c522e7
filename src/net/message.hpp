// Wire envelope shared by all protocols.
//
// The payload is an opaque, protocol-defined serialized body; the signature
// covers (type || payload) so a quorum message stays valid no matter which
// peer it is relayed to. The sender's identity is bound inside the payload
// (every protocol message carries its sender field) — `src`/`dst` are
// untrusted routing hints for the environment.
//
// Zero-copy message fabric / the single-allocation invariant
// ----------------------------------------------------------
// `payload` and `signature` are SharedBytes frames: ref-counted immutable
// views, not owning vectors. The fabric maintains one wire image per
// message:
//
//  * A received envelope (`from_frame` / `deserialize`) holds exactly ONE
//    buffer — the wire frame. `payload`, `signature` and the signing input
//    are (offset, length) views into it; re-serializing for relay returns
//    that same frame. (Bookkeeping still allocates: the shared memo's
//    control block — "zero-copy" claims below are about frame buffers,
//    i.e. message bytes, not about every heap allocation.)
//  * Copying an envelope (broadcast fan-out, stored quorum certificates)
//    bumps reference counts; an N-way broadcast performs O(1) payload
//    allocations, not O(N).
//  * serialization (`wire()`), the signing input and the SHA-256 digest
//    over it are memoized and shared across copies: computed at most once
//    per message per replica, then reused by the VerifyCache key, batch
//    paths and checkpoint proofs. The memo self-invalidates when a field
//    is reassigned (it is keyed on the frames it was computed from).
//
// Like the plain struct it replaced, one Envelope *instance* is not safe
// for concurrent access from multiple threads; distinct copies sharing the
// same frames are (frames are immutable).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "common/bytes.hpp"
#include "common/frame.hpp"
#include "common/types.hpp"
#include "crypto/keyring.hpp"

namespace sbft {
class Writer;
}  // namespace sbft

namespace sbft::net {

struct Envelope {
  principal::Id src{0};
  principal::Id dst{0};
  std::uint32_t type{0};
  SharedBytes payload;
  SharedBytes signature;  // empty for unauthenticated messages

  /// The message's single serialized wire image, memoized: the first call
  /// builds the frame, later calls (and copies of this envelope) return the
  /// same allocation. For envelopes parsed via from_frame(), this is the
  /// received frame itself — serialize once, relay everywhere.
  [[nodiscard]] SharedBytes wire() const;

  /// Size of the wire image: routing header, then payload and signature,
  /// each with its length prefix.
  [[nodiscard]] std::size_t wire_size() const noexcept;
  /// wire_size() of an envelope with empty payload and signature.
  static constexpr std::size_t kMinWireBytes = 8 + 8 + 4 + 4 + 4;

  /// Appends the wire image to `w` straight from the fields, with no memo
  /// built or consulted: the one encoder of the layout, which wire() also
  /// uses. For one-shot encoders that copy the image anyway, such as an
  /// enclave's outbox.
  void write_wire(Writer& w) const;

  /// The byte string the signature covers, (type || payload), as a view
  /// into the memoized frame: no allocation after the first call, and none
  /// at all on received envelopes (it aliases the wire image). Valid until
  /// this envelope's type/payload are reassigned.
  [[nodiscard]] ByteView signing_input_view() const;

  /// SHA-256 over signing_input_view() — the envelope's one-shot identity
  /// digest. Computed at most once per message per replica (memoized,
  /// shared across copies); the VerifyCache key, relay paths and proof
  /// validation all reuse it.
  [[nodiscard]] Digest digest() const;

  /// Zero-copy parse: on success the envelope's payload/signature are
  /// views into `frame`, and wire()/signing_input_view() alias it too —
  /// no further frame allocation or byte copy, ever (only the memo's
  /// control block is heap-allocated). nullopt on malformed/truncated
  /// input.
  [[nodiscard]] static std::optional<Envelope> from_frame(SharedBytes frame);

  /// Copying parse (one allocation: the wire frame `data` is copied into).
  [[nodiscard]] static std::optional<Envelope> deserialize(ByteView data);

  [[nodiscard]] friend bool operator==(const Envelope& a,
                                       const Envelope& b) noexcept {
    return a.src == b.src && a.dst == b.dst && a.type == b.type &&
           a.payload == b.payload && a.signature == b.signature;
  }

 private:
  /// Shared by every copy of the message (broadcast fan-out, stored quorum
  /// state). Keyed on the exact (type, payload frame) it was computed from
  /// — a reassigned payload simply misses and a fresh memo is built. The
  /// digest is filled lazily but exactly once across ALL copies: they share
  /// the memo, and call_once makes the fill safe even when copies live on
  /// different threads.
  struct Memo {
    SharedBytes payload_key;  // keepalive + identity of `payload`
    std::uint32_t type{0};
    SharedBytes signing;  // (type || payload); layout-aliases wire [16, 8+n)
    mutable std::once_flag digest_once;
    mutable Digest digest;  // valid once digest_once has run
  };

  [[nodiscard]] bool memo_base_valid() const noexcept;
  void ensure_base_memo() const;

  mutable std::shared_ptr<const Memo> memo_;
  // The wire image is cached per instance, not in the shared memo: it
  // encodes src/dst, and broadcast copies rewrite dst. Keyed on the exact
  // routing fields/signature it was built from; copies of an unmodified
  // envelope (relays, stored certificates) inherit the cache and share the
  // frame.
  mutable SharedBytes wire_image_;  // empty = not yet built
  mutable principal::Id wire_src_{0};
  mutable principal::Id wire_dst_{0};
  mutable SharedBytes wire_signature_key_;
};

/// The byte string a signature covers (freestanding compat helper; envelope
/// call sites use the allocation-free signing_input_view()).
[[nodiscard]] Bytes signing_input(std::uint32_t type, ByteView payload);

/// Signs an envelope in place with the given signer.
void sign_envelope(Envelope& env, const crypto::Signer& signer);

/// Verifies the envelope signature against the claimed principal.
[[nodiscard]] bool verify_envelope(const Envelope& env,
                                   const crypto::Verifier& verifier,
                                   principal::Id claimed_signer);

/// Fabric instrumentation: process-wide counts of envelope digest
/// computations and wire-image builds (bench/message_fabric asserts
/// "at most once per message" with these).
[[nodiscard]] std::uint64_t envelope_digests_computed() noexcept;
[[nodiscard]] std::uint64_t envelope_wire_builds() noexcept;

}  // namespace sbft::net
