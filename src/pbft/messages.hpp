// PBFT message formats (Castro & Liskov, OSDI '99), shared with SplitBFT.
//
// Certificate-carrying messages (ViewChange, NewView) embed complete signed
// envelopes so any receiver can re-check every signature in a proof without
// trusting the relay.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "net/message.hpp"

namespace sbft::pbft {

/// Envelope `type` tags for PBFT and SplitBFT traffic.
enum class MsgType : std::uint32_t {
  Request = 1,
  PrePrepare = 2,
  Prepare = 3,
  Commit = 4,
  Reply = 5,
  Checkpoint = 6,
  ViewChange = 7,
  NewView = 8,
  StateRequest = 9,
  StateResponse = 10,
  // Read-only fast path (classic PBFT read optimization): the payload is a
  // regular serialized Request, but replicas execute it against committed
  // state and answer directly instead of ordering it. Falling back to the
  // ordered path re-broadcasts the identical Request bytes as Request.
  ReadRequest = 11,
  ReadReply = 12,
  // Streaming state transfer: chunked snapshot fetch under the Merkle
  // commitment the checkpoint certificate signs (see crypto/merkle.hpp).
  StateChunkRequest = 13,
  StateChunkResponse = 14,
  // SplitBFT-only client/session traffic.
  AttestRequest = 20,
  AttestReport = 21,
  SessionInit = 22,
  SessionAck = 23,
};

[[nodiscard]] constexpr std::uint32_t tag(MsgType t) noexcept {
  return static_cast<std::uint32_t>(t);
}

// Client-authenticated wire layouts. A Request is client u32, timestamp
// u64, then the payload and the client's MAC, each with a u32 length
// prefix. A Reply is view u64, timestamp u64, client u32, sender u32, then
// the result and the MAC the same way. The MAC covers every byte before
// its own length prefix: the header write_*_header writes, then the body.
// Request/Reply::serialize and callers that build a message in one buffer
// (a sealed body written in place) share these writers.

/// A Request's fixed fields through the payload length prefix.
inline constexpr std::size_t kRequestHeaderBytes = 4 + 8 + 4;
/// A Reply's fixed fields through the result length prefix.
inline constexpr std::size_t kReplyHeaderBytes = 8 + 8 + 4 + 4 + 4;
/// A client MAC with its length prefix, as append_mac writes it.
inline constexpr std::size_t kMacFieldBytes = 4 + sizeof(Digest::bytes);

void write_request_header(Writer& w, ClientId client, Timestamp timestamp,
                          std::size_t payload_size);
void write_reply_header(Writer& w, View view, Timestamp timestamp,
                        ClientId client, ReplicaId sender,
                        std::size_t result_size);
/// Appends the length-prefixed HMAC under `key` over everything in `w`:
/// after a header and its body, the message's auth field.
void append_mac(Writer& w, const crypto::HmacKey& key);

/// Client request. `payload` is the application operation — in SplitBFT it
/// is AEAD-encrypted for the Execution enclave; the agreement layers only
/// ever see ciphertext. `auth` is the client's HMAC.
struct Request {
  ClientId client{0};
  Timestamp timestamp{0};
  Bytes payload;
  Bytes auth;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Request> deserialize(ByteView data);
  /// The byte string the client MAC covers.
  [[nodiscard]] Bytes auth_input() const;
  /// Digest identifying the request (client, timestamp, payload).
  [[nodiscard]] Digest digest() const;
  /// The client MAC over auth_input()'s bytes, hashed from the fields.
  [[nodiscard]] Digest mac(const crypto::HmacKey& key) const;
  /// True when `auth` equals mac(key) (constant-time compare).
  [[nodiscard]] bool mac_valid(const crypto::HmacKey& key) const;
};

/// Ordered batch of requests — the unit of agreement.
struct RequestBatch {
  std::vector<Request> requests;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<RequestBatch> deserialize(ByteView data);
  [[nodiscard]] Digest digest() const;
  [[nodiscard]] bool empty() const noexcept { return requests.empty(); }
};

/// Zero-copy view of one serialized Request: every field aliases the
/// bytes it was parsed from, which must outlive the view. The one Request
/// parser: Request::deserialize is parse() plus a copy of the fields.
struct RequestView {
  ClientId client{0};
  Timestamp timestamp{0};
  ByteView payload;
  ByteView auth;
  /// The whole serialized request (what RequestBatch::serialize embeds).
  ByteView bytes;

  [[nodiscard]] static std::optional<RequestView> parse(ByteView data);
  /// Request::mac, hashed over the signed prefix of `bytes` in place (the
  /// fixed fields and the payload).
  [[nodiscard]] Digest mac(const crypto::HmacKey& key) const;
  /// True when `auth` equals mac(key) (constant-time compare).
  [[nodiscard]] bool mac_valid(const crypto::HmacKey& key) const;
};

/// Parses a serialized RequestBatch into views of its requests: one vector,
/// no request bytes copied. RequestBatch::deserialize is this parse plus a
/// copy of each request, and the views alias `data`.
[[nodiscard]] std::optional<std::vector<RequestView>> parse_request_batch(
    ByteView data);

/// RequestBatch::serialize() of requests that are already serialized (a
/// range of ByteView-convertible buffers): the count, then each request
/// with its length prefix, in one buffer sized once.
template <typename Range>
[[nodiscard]] Bytes concat_request_batch(const Range& requests) {
  std::size_t size = 4;
  std::uint32_t count = 0;
  for (const auto& req : requests) {
    size += 4 + ByteView(req).size();
    ++count;
  }
  Writer w(size);
  w.u32(count);
  for (const auto& req : requests) w.bytes(req);
  return std::move(w).take();
}

struct PrePrepare {
  View view{0};
  SeqNum seq{0};
  Digest batch_digest;
  Bytes batch;  // serialized RequestBatch (full requests)
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<PrePrepare> deserialize(ByteView data);
};

struct Prepare {
  View view{0};
  SeqNum seq{0};
  Digest batch_digest;
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Prepare> deserialize(ByteView data);
};

struct Commit {
  View view{0};
  SeqNum seq{0};
  Digest batch_digest;
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Commit> deserialize(ByteView data);
};

struct Reply {
  View view{0};
  Timestamp timestamp{0};
  ClientId client{0};
  ReplicaId sender{0};
  Bytes result;  // encrypted in SplitBFT
  Bytes auth;    // HMAC for the client

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Reply> deserialize(ByteView data);
  /// The MAC for the client: every field but `auth`, in wire order.
  [[nodiscard]] Digest mac(const crypto::HmacKey& key) const;
  /// True when `auth` equals mac(key) (constant-time compare).
  [[nodiscard]] bool mac_valid(const crypto::HmacKey& key) const;
};

/// Zero-copy view of one serialized Reply: every field aliases the bytes it
/// was parsed from, which must outlive the view. The one Reply parser:
/// Reply::deserialize is parse() plus a copy of the fields.
struct ReplyView {
  View view{0};
  Timestamp timestamp{0};
  ClientId client{0};
  ReplicaId sender{0};
  ByteView result;
  ByteView auth;
  /// The whole serialized reply.
  ByteView bytes;

  [[nodiscard]] static std::optional<ReplyView> parse(ByteView data);
  /// Reply::mac, hashed over the signed prefix of `bytes` in place.
  [[nodiscard]] Digest mac(const crypto::HmacKey& key) const;
  /// True when `auth` equals mac(key) (constant-time compare).
  [[nodiscard]] bool mac_valid(const crypto::HmacKey& key) const;
};

/// Answer to a ReadRequest, served from committed state without ordering.
/// Reply-digest suppression: only the designated responder for the read
/// (Config::read_responder) carries the full `result`; every other replica
/// votes with `result_digest` alone, cutting reply bandwidth to one value +
/// n-1 digests. The client accepts once 2f+1 replies match on
/// (result_digest, exec_seq) AND a full result hashing to that digest
/// arrived; anything else falls back to the ordered path.
struct ReadReply {
  Timestamp timestamp{0};
  ClientId client{0};
  ReplicaId sender{0};
  /// Last executed sequence number when the read was served — the state
  /// version the vote is for.
  SeqNum exec_seq{0};
  /// Digest of the (plaintext) result under the stack's read-digest rule:
  /// sha256(result) for PBFT, a session-keyed HMAC for SplitBFT.
  Digest result_digest;
  bool has_result{false};
  Bytes result;  // full value, designated responder only (encrypted in SplitBFT)
  Bytes auth;    // HMAC for the client

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<ReadReply> deserialize(ByteView data);
  /// The MAC for the client: every field but `auth`, in wire order.
  [[nodiscard]] Digest mac(const crypto::HmacKey& key) const;
  /// True when `auth` equals mac(key) (constant-time compare).
  [[nodiscard]] bool mac_valid(const crypto::HmacKey& key) const;
};

struct Checkpoint {
  SeqNum seq{0};
  Digest state_digest;
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Checkpoint> deserialize(ByteView data);
};

/// Prepared certificate: one PrePrepare plus 2f matching Prepare envelopes.
struct PreparedProof {
  net::Envelope pre_prepare;
  std::vector<net::Envelope> prepares;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<PreparedProof> deserialize(ByteView data);
};

struct ViewChange {
  View new_view{0};
  SeqNum last_stable{0};
  /// 2f+1 signed Checkpoint envelopes proving `last_stable` (empty at 0).
  std::vector<net::Envelope> checkpoint_proof;
  /// Prepared certificates for sequence numbers above `last_stable`.
  std::vector<PreparedProof> prepared;
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<ViewChange> deserialize(ByteView data);
};

struct NewView {
  View new_view{0};
  /// 2f+1 signed ViewChange envelopes.
  std::vector<net::Envelope> view_changes;
  /// Re-issued PrePrepare envelopes for the new view.
  std::vector<net::Envelope> pre_prepares;
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<NewView> deserialize(ByteView data);
};

struct StateRequest {
  SeqNum seq{0};
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<StateRequest> deserialize(ByteView data);
};

struct StateResponse {
  SeqNum seq{0};
  Bytes snapshot;
  /// 2f+1 Checkpoint envelopes proving the snapshot digest at `seq`.
  std::vector<net::Envelope> checkpoint_proof;
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<StateResponse> deserialize(ByteView data);
};

/// Upper bound on chunks one StateChunkRequest may name: keeps a forged
/// request from commanding an unbounded burst of responses, and lets the
/// fetcher's in-flight budget stay meaningful.
inline constexpr std::uint32_t kMaxChunksPerRequest = 256;

/// Hard plausibility cap on a single chunk's bytes (well above any sane
/// Config::state_chunk_bytes; deserialization rejects beyond it before
/// the payload is even framed).
inline constexpr std::uint64_t kMaxStateChunkBytes = 16u << 20;

/// Wire chunks may exceed the manifest chunk size by this much: SplitBFT
/// Execution compartments transfer chunks AEAD-sealed (ciphertext =
/// plaintext + 16-byte tag). The fetcher still checks the exact plaintext
/// size against the manifest after unsealing.
inline constexpr std::uint64_t kStateChunkSealOverhead = 16;

/// Asks `sender`'s peer for chunks [first_chunk, first_chunk + count) of
/// the snapshot at stable checkpoint `seq`.
struct StateChunkRequest {
  SeqNum seq{0};
  std::uint64_t first_chunk{0};
  std::uint32_t count{1};
  ReplicaId sender{0};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<StateChunkRequest> deserialize(
      ByteView data);
};

/// One verified-transferable chunk. Carries the full manifest geometry
/// (total_bytes, chunk_bytes, root) so the receiver can check it against
/// the commitment its 2f+1 checkpoint certificate proved — a lying
/// responder is caught before any chunk bytes are trusted — plus the
/// Merkle path authenticating `chunk` at `index` under `root`.
struct StateChunkResponse {
  SeqNum seq{0};
  std::uint64_t total_bytes{0};
  std::uint64_t chunk_bytes{0};
  Digest root;
  std::uint64_t index{0};
  Bytes chunk;
  crypto::MerkleProof proof;
  /// Normally empty. A response to a StateRequest (the "announce" that
  /// bootstraps a rebooted replica) carries the 2f+1 Checkpoint envelopes
  /// proving the manifest commitment at `seq`, so the receiver can adopt
  /// the checkpoint and start fetching without any prior local state.
  std::vector<net::Envelope> checkpoint_proof;
  ReplicaId sender{0};

  [[nodiscard]] crypto::SnapshotManifest manifest() const noexcept {
    return {total_bytes, chunk_bytes, root};
  }

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<StateChunkResponse> deserialize(
      ByteView data);
};

}  // namespace sbft::pbft
