#include "pbft/messages.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace sbft::pbft {

namespace {

void put_digest(Writer& w, const Digest& d) { w.raw(d.view()); }

[[nodiscard]] Digest get_digest(Reader& r) {
  const Bytes b = r.raw(32);
  Digest d;
  if (b.size() == 32) std::copy(b.begin(), b.end(), d.bytes.begin());
  return d;
}

void put_envelopes(Writer& w, const std::vector<net::Envelope>& envs) {
  w.u32(static_cast<std::uint32_t>(envs.size()));
  // wire() is the envelope's memoized single serialization — embedding a
  // stored quorum envelope in a proof re-uses it instead of re-encoding.
  for (const auto& e : envs) w.bytes(e.wire());
}

[[nodiscard]] std::optional<std::vector<net::Envelope>> get_envelopes(
    Reader& r, std::size_t max = 1024) {
  const std::uint32_t n = r.u32();
  if (n > max) return std::nullopt;
  // Plausibility bound before reserving: each entry costs at least its
  // 4-byte length prefix plus a minimal envelope, so a tiny message cannot
  // command a huge allocation just by writing a large count.
  if (n > r.remaining() / 8) return std::nullopt;
  std::vector<net::Envelope> envs;
  envs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t len = r.u32();
    const ByteView b = r.view(len);  // view, not copy; deserialize frames it
    if (r.failed()) return std::nullopt;
    auto env = net::Envelope::deserialize(b);
    if (!env) return std::nullopt;
    envs.push_back(std::move(*env));
  }
  return envs;
}

/// Fixed-width fields laid out as Writer encodes them, in a stack buffer.
template <std::size_t N>
class AuthHeader {
 public:
  static constexpr std::size_t kSize = N;

  AuthHeader& u8(std::uint8_t v) { return put(v, 1); }
  AuthHeader& u32(std::uint32_t v) { return put(v, 4); }
  AuthHeader& u64(std::uint64_t v) { return put(v, 8); }
  AuthHeader& digest(const Digest& d) {
    std::copy(d.bytes.begin(), d.bytes.end(), buf_.begin() + len_);
    len_ += d.bytes.size();
    return *this;
  }
  [[nodiscard]] ByteView view() const noexcept { return {buf_.data(), len_}; }

 private:
  AuthHeader& put(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      buf_[len_++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return *this;
  }

  std::array<std::uint8_t, N> buf_{};
  std::size_t len_{0};
};

// The Request and Reply header layouts, written once for both sinks: a
// Writer (serialize, write_*_header) and an AuthHeader (a MAC over
// fields, hashed from the stack).

template <typename Sink>
void put_request_header(Sink& s, ClientId client, Timestamp timestamp,
                        std::size_t payload_size) {
  s.u32(client);
  s.u64(timestamp);
  s.u32(static_cast<std::uint32_t>(payload_size));
}

template <typename Sink>
void put_reply_header(Sink& s, View view, Timestamp timestamp,
                      ClientId client, ReplicaId sender,
                      std::size_t result_size) {
  s.u64(view);
  s.u64(timestamp);
  s.u32(client);
  s.u32(sender);
  s.u32(static_cast<std::uint32_t>(result_size));
}

[[nodiscard]] AuthHeader<kRequestHeaderBytes> auth_header(const Request& m) {
  AuthHeader<kRequestHeaderBytes> h;
  put_request_header(h, m.client, m.timestamp, m.payload.size());
  return h;
}

[[nodiscard]] AuthHeader<kReplyHeaderBytes> auth_header(const Reply& m) {
  AuthHeader<kReplyHeaderBytes> h;
  put_reply_header(h, m.view, m.timestamp, m.client, m.sender,
                   m.result.size());
  return h;
}

[[nodiscard]] AuthHeader<61> auth_header(const ReadReply& m) {
  AuthHeader<61> h;
  h.u64(m.timestamp).u32(m.client).u32(m.sender).u64(m.exec_seq);
  h.digest(m.result_digest).u8(m.has_result ? 1 : 0);
  h.u32(static_cast<std::uint32_t>(m.result.size()));
  return h;
}

/// Encoded size of serialize() for a header + body + MAC message.
template <typename Msg>
[[nodiscard]] std::size_t wire_size(const Msg& m, const Bytes& body) {
  return decltype(auth_header(m))::kSize + body.size() + 4 + m.auth.size();
}

template <typename Msg>
void put_authenticated(Writer& w, const Msg& m, const Bytes& body) {
  w.raw(auth_header(m).view());
  w.raw(body);
  w.bytes(m.auth);
}

[[nodiscard]] Bytes copy(ByteView v) { return Bytes(v.begin(), v.end()); }

[[nodiscard]] Request owned(const RequestView& v) {
  return Request{v.client, v.timestamp, copy(v.payload), copy(v.auth)};
}

/// The one RequestBatch parser: bounds the count, then appends
/// `convert(view)` of each request to `out`. False on malformed input.
template <typename T, typename Convert>
[[nodiscard]] bool parse_batch(ByteView data, std::vector<T>& out,
                               Convert convert) {
  Reader r(data);
  const std::uint32_t n = r.u32();
  if (n > 100'000) return false;
  // A serialized request is at least 20 bytes (length prefix + fixed
  // fields): bound the count by the remaining input before reserving.
  if (n > r.remaining() / 20) return false;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t len = r.u32();
    const ByteView b = r.view(len);
    if (r.failed()) return false;
    const auto view = RequestView::parse(b);
    if (!view) return false;
    out.push_back(convert(*view));
  }
  return r.done();
}

}  // namespace

// -------------------------------------------------- authenticated layouts

void write_request_header(Writer& w, ClientId client, Timestamp timestamp,
                          std::size_t payload_size) {
  put_request_header(w, client, timestamp, payload_size);
}

void write_reply_header(Writer& w, View view, Timestamp timestamp,
                        ClientId client, ReplicaId sender,
                        std::size_t result_size) {
  put_reply_header(w, view, timestamp, client, sender, result_size);
}

void append_mac(Writer& w, const crypto::HmacKey& key) {
  const Digest mac = crypto::hmac_sha256(key, w.data());
  w.bytes(mac.view());
}

// ---------------------------------------------------------------- Request

Bytes Request::serialize() const {
  Writer w(wire_size(*this, payload));
  put_authenticated(w, *this, payload);
  return std::move(w).take();
}

std::optional<Request> Request::deserialize(ByteView data) {
  const auto view = RequestView::parse(data);
  if (!view) return std::nullopt;
  return owned(*view);
}

Bytes Request::auth_input() const {
  const auto header = auth_header(*this);
  Writer w(header.kSize + payload.size());
  w.raw(header.view());
  w.raw(payload);
  return std::move(w).take();
}

Digest Request::digest() const { return crypto::sha256(auth_input()); }

Digest Request::mac(const crypto::HmacKey& key) const {
  return crypto::hmac_sha256(key, auth_header(*this).view(), payload);
}

bool Request::mac_valid(const crypto::HmacKey& key) const {
  return ct_equal(mac(key).view(), auth);
}

// ------------------------------------------------------------ RequestView

std::optional<RequestView> RequestView::parse(ByteView data) {
  Reader r(data);
  RequestView v;
  v.client = r.u32();
  v.timestamp = r.u64();
  v.payload = r.view(r.u32());
  v.auth = r.view(r.u32());
  if (!r.done()) return std::nullopt;
  v.bytes = data;
  return v;
}

Digest RequestView::mac(const crypto::HmacKey& key) const {
  // The wire prefix up to the auth length is the header and the payload.
  return crypto::hmac_sha256(
      key, bytes.first(kRequestHeaderBytes + payload.size()));
}

bool RequestView::mac_valid(const crypto::HmacKey& key) const {
  return ct_equal(mac(key).view(), auth);
}

// ----------------------------------------------------------- RequestBatch

Bytes RequestBatch::serialize() const {
  // Each request is length-prefixed and written in place: the layout of
  // concat_request_batch over the serialized requests.
  std::size_t size = 4;
  for (const auto& req : requests) size += 4 + wire_size(req, req.payload);
  Writer w(size);
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const auto& req : requests) {
    w.u32(static_cast<std::uint32_t>(wire_size(req, req.payload)));
    put_authenticated(w, req, req.payload);
  }
  return std::move(w).take();
}

std::optional<RequestBatch> RequestBatch::deserialize(ByteView data) {
  RequestBatch batch;
  if (!parse_batch(data, batch.requests, owned)) return std::nullopt;
  return batch;
}

std::optional<std::vector<RequestView>> parse_request_batch(ByteView data) {
  std::vector<RequestView> views;
  if (!parse_batch(data, views, std::identity{})) return std::nullopt;
  return views;
}

Digest RequestBatch::digest() const { return crypto::sha256(serialize()); }

// ------------------------------------------------------------- PrePrepare

Bytes PrePrepare::serialize() const {
  Writer w(8 + 8 + 32 + 4 + batch.size() + 4);
  w.u64(view);
  w.u64(seq);
  put_digest(w, batch_digest);
  w.bytes(batch);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<PrePrepare> PrePrepare::deserialize(ByteView data) {
  Reader r(data);
  PrePrepare m;
  m.view = r.u64();
  m.seq = r.u64();
  m.batch_digest = get_digest(r);
  m.batch = r.bytes();
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------- Prepare

Bytes Prepare::serialize() const {
  Writer w;
  w.u64(view);
  w.u64(seq);
  put_digest(w, batch_digest);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<Prepare> Prepare::deserialize(ByteView data) {
  Reader r(data);
  Prepare m;
  m.view = r.u64();
  m.seq = r.u64();
  m.batch_digest = get_digest(r);
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

// ----------------------------------------------------------------- Commit

Bytes Commit::serialize() const {
  Writer w;
  w.u64(view);
  w.u64(seq);
  put_digest(w, batch_digest);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<Commit> Commit::deserialize(ByteView data) {
  Reader r(data);
  Commit m;
  m.view = r.u64();
  m.seq = r.u64();
  m.batch_digest = get_digest(r);
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

// ------------------------------------------------------------------ Reply

Bytes Reply::serialize() const {
  Writer w(wire_size(*this, result));
  put_authenticated(w, *this, result);
  return std::move(w).take();
}

std::optional<Reply> Reply::deserialize(ByteView data) {
  const auto v = ReplyView::parse(data);
  if (!v) return std::nullopt;
  return Reply{v->view,   v->timestamp,     v->client,
               v->sender, copy(v->result), copy(v->auth)};
}

Digest Reply::mac(const crypto::HmacKey& key) const {
  return crypto::hmac_sha256(key, auth_header(*this).view(), result);
}

bool Reply::mac_valid(const crypto::HmacKey& key) const {
  return ct_equal(mac(key).view(), auth);
}

// -------------------------------------------------------------- ReplyView

std::optional<ReplyView> ReplyView::parse(ByteView data) {
  Reader r(data);
  ReplyView v;
  v.view = r.u64();
  v.timestamp = r.u64();
  v.client = r.u32();
  v.sender = r.u32();
  v.result = r.view(r.u32());
  v.auth = r.view(r.u32());
  if (!r.done()) return std::nullopt;
  v.bytes = data;
  return v;
}

Digest ReplyView::mac(const crypto::HmacKey& key) const {
  return crypto::hmac_sha256(key,
                             bytes.first(kReplyHeaderBytes + result.size()));
}

bool ReplyView::mac_valid(const crypto::HmacKey& key) const {
  return ct_equal(mac(key).view(), auth);
}

// -------------------------------------------------------------- ReadReply

Bytes ReadReply::serialize() const {
  Writer w(wire_size(*this, result));
  put_authenticated(w, *this, result);
  return std::move(w).take();
}

std::optional<ReadReply> ReadReply::deserialize(ByteView data) {
  Reader r(data);
  ReadReply m;
  m.timestamp = r.u64();
  m.client = r.u32();
  m.sender = r.u32();
  m.exec_seq = r.u64();
  m.result_digest = get_digest(r);
  m.has_result = r.boolean();
  m.result = r.bytes();
  m.auth = r.bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Digest ReadReply::mac(const crypto::HmacKey& key) const {
  return crypto::hmac_sha256(key, auth_header(*this).view(), result);
}

bool ReadReply::mac_valid(const crypto::HmacKey& key) const {
  return ct_equal(mac(key).view(), auth);
}

// ------------------------------------------------------------- Checkpoint

Bytes Checkpoint::serialize() const {
  Writer w;
  w.u64(seq);
  put_digest(w, state_digest);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<Checkpoint> Checkpoint::deserialize(ByteView data) {
  Reader r(data);
  Checkpoint m;
  m.seq = r.u64();
  m.state_digest = get_digest(r);
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------- PreparedProof

Bytes PreparedProof::serialize() const {
  Writer w;
  w.bytes(pre_prepare.wire());
  put_envelopes(w, prepares);
  return std::move(w).take();
}

std::optional<PreparedProof> PreparedProof::deserialize(ByteView data) {
  Reader r(data);
  PreparedProof proof;
  const Bytes pp = r.bytes();
  if (r.failed()) return std::nullopt;
  auto env = net::Envelope::deserialize(pp);
  if (!env) return std::nullopt;
  proof.pre_prepare = std::move(*env);
  auto prepares = get_envelopes(r);
  if (!prepares || !r.done()) return std::nullopt;
  proof.prepares = std::move(*prepares);
  return proof;
}

// ------------------------------------------------------------- ViewChange

Bytes ViewChange::serialize() const {
  Writer w;
  w.u64(new_view);
  w.u64(last_stable);
  put_envelopes(w, checkpoint_proof);
  w.u32(static_cast<std::uint32_t>(prepared.size()));
  for (const auto& p : prepared) w.bytes(p.serialize());
  w.u32(sender);
  return std::move(w).take();
}

std::optional<ViewChange> ViewChange::deserialize(ByteView data) {
  Reader r(data);
  ViewChange m;
  m.new_view = r.u64();
  m.last_stable = r.u64();
  auto proof = get_envelopes(r);
  if (!proof) return std::nullopt;
  m.checkpoint_proof = std::move(*proof);
  const std::uint32_t n = r.u32();
  if (n > 4096) return std::nullopt;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Bytes b = r.bytes();
    if (r.failed()) return std::nullopt;
    auto p = PreparedProof::deserialize(b);
    if (!p) return std::nullopt;
    m.prepared.push_back(std::move(*p));
  }
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------- NewView

Bytes NewView::serialize() const {
  Writer w;
  w.u64(new_view);
  put_envelopes(w, view_changes);
  put_envelopes(w, pre_prepares);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<NewView> NewView::deserialize(ByteView data) {
  Reader r(data);
  NewView m;
  m.new_view = r.u64();
  auto vcs = get_envelopes(r);
  if (!vcs) return std::nullopt;
  m.view_changes = std::move(*vcs);
  auto pps = get_envelopes(r, 4096);
  if (!pps) return std::nullopt;
  m.pre_prepares = std::move(*pps);
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

// ------------------------------------------------------------ State xfer

Bytes StateRequest::serialize() const {
  Writer w;
  w.u64(seq);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<StateRequest> StateRequest::deserialize(ByteView data) {
  Reader r(data);
  StateRequest m;
  m.seq = r.u64();
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes StateResponse::serialize() const {
  Writer w;
  w.u64(seq);
  w.bytes(snapshot);
  put_envelopes(w, checkpoint_proof);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<StateResponse> StateResponse::deserialize(ByteView data) {
  Reader r(data);
  StateResponse m;
  m.seq = r.u64();
  // Reader::bytes() checks the length prefix against the remaining input
  // before allocating, so a hostile prefix cannot size a huge snapshot
  // buffer; the proof vector is bounded inside get_envelopes.
  m.snapshot = r.bytes();
  auto proof = get_envelopes(r);
  if (!proof) return std::nullopt;
  m.checkpoint_proof = std::move(*proof);
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes StateChunkRequest::serialize() const {
  Writer w;
  w.u64(seq);
  w.u64(first_chunk);
  w.u32(count);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<StateChunkRequest> StateChunkRequest::deserialize(
    ByteView data) {
  Reader r(data);
  StateChunkRequest m;
  m.seq = r.u64();
  m.first_chunk = r.u64();
  m.count = r.u32();
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  if (m.count == 0 || m.count > kMaxChunksPerRequest) return std::nullopt;
  return m;
}

Bytes StateChunkResponse::serialize() const {
  Writer w;
  w.u64(seq);
  w.u64(total_bytes);
  w.u64(chunk_bytes);
  put_digest(w, root);
  w.u64(index);
  w.bytes(chunk);
  w.u32(static_cast<std::uint32_t>(proof.size()));
  for (const auto& step : proof) {
    put_digest(w, step.sibling);
    w.boolean(step.sibling_is_left);
  }
  put_envelopes(w, checkpoint_proof);
  w.u32(sender);
  return std::move(w).take();
}

std::optional<StateChunkResponse> StateChunkResponse::deserialize(
    ByteView data) {
  Reader r(data);
  StateChunkResponse m;
  m.seq = r.u64();
  m.total_bytes = r.u64();
  m.chunk_bytes = r.u64();
  m.root = get_digest(r);
  m.index = r.u64();
  // Bound the payload before it is framed: the wire length prefix must
  // agree with the manifest's chunk size, which is itself capped.
  if (m.chunk_bytes == 0 || m.chunk_bytes > kMaxStateChunkBytes) {
    return std::nullopt;
  }
  m.chunk = r.bytes();
  if (r.failed() || m.chunk.size() > m.chunk_bytes + kStateChunkSealOverhead) {
    return std::nullopt;
  }
  const std::uint32_t steps = r.u32();
  // A proof step costs 33 bytes on the wire; bound the count by both the
  // plausible tree depth and the input actually present.
  if (steps > crypto::kMaxMerkleProofLen) return std::nullopt;
  if (steps > r.remaining() / 33) return std::nullopt;
  m.proof.reserve(steps);
  for (std::uint32_t i = 0; i < steps; ++i) {
    crypto::MerkleStep step;
    step.sibling = get_digest(r);
    step.sibling_is_left = r.boolean();
    m.proof.push_back(step);
  }
  auto cert = get_envelopes(r);
  if (!cert) return std::nullopt;
  m.checkpoint_proof = std::move(*cert);
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace sbft::pbft
