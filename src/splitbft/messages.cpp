#include "splitbft/messages.hpp"

#include "common/serde.hpp"
#include "crypto/hmac.hpp"

namespace sbft::splitbft {

namespace {

// The outbox entry's length prefix plus the smallest envelope wire image.
constexpr std::size_t kMinOutboxEntry = 4 + net::Envelope::kMinWireBytes;

// SplitPrePrepare::header_bytes(): view, seq, digest, sender.
constexpr std::size_t kHeaderBytes = 8 + 8 + 32 + 4;

void put_digest(Writer& w, const Digest& d) { w.raw(d.view()); }

[[nodiscard]] Digest get_digest(Reader& r) {
  const Bytes b = r.raw(32);
  Digest d;
  if (b.size() == 32) std::copy(b.begin(), b.end(), d.bytes.begin());
  return d;
}

void put_key(Writer& w, const crypto::Key32& k) {
  w.raw(ByteView{k.data(), k.size()});
}

[[nodiscard]] crypto::Key32 get_key(Reader& r) {
  const Bytes b = r.raw(32);
  crypto::Key32 k{};
  if (b.size() == 32) std::copy(b.begin(), b.end(), k.begin());
  return k;
}

void put_header(Writer& w, const SplitPrePrepare& pp) {
  w.u64(pp.view);
  w.u64(pp.seq);
  put_digest(w, pp.batch_digest);
  w.u32(pp.sender);
}

}  // namespace

// ---------------------------------------------------------- SplitPrePrepare

Bytes SplitPrePrepare::header_bytes() const {
  Writer w(kHeaderBytes);
  put_header(w, *this);
  return std::move(w).take();
}

Bytes SplitPrePrepare::serialize() const {
  Writer w(kHeaderBytes + 1 + (has_batch ? 4 + batch.size() : 0));
  put_header(w, *this);
  w.boolean(has_batch);
  if (has_batch) w.bytes(batch);
  return std::move(w).take();
}

std::optional<SplitPrePrepare> SplitPrePrepare::deserialize(ByteView data) {
  Reader r(data);
  SplitPrePrepare pp;
  pp.view = r.u64();
  pp.seq = r.u64();
  pp.batch_digest = get_digest(r);
  pp.sender = r.u32();
  pp.has_batch = r.boolean();
  if (pp.has_batch) pp.batch = r.bytes();
  if (!r.done()) return std::nullopt;
  return pp;
}

std::optional<Bytes> SplitPrePrepare::strip_payload(ByteView data) {
  Reader r(data);
  r.skip(kHeaderBytes);
  if (r.boolean()) r.skip(r.u32());
  if (!r.done()) return std::nullopt;
  // The header bytes as they are, then has_batch = false.
  Writer w(kHeaderBytes + 1);
  w.raw(data.first(kHeaderBytes));
  w.boolean(false);
  return std::move(w).take();
}

SplitPrePrepare SplitPrePrepare::stripped() const {
  SplitPrePrepare copy = *this;
  copy.batch.clear();
  copy.has_batch = false;
  return copy;
}

Digest read_result_digest(const crypto::Key32& session_key,
                          Timestamp timestamp, ByteView plaintext) {
  Writer w;
  w.raw(to_bytes("read-digest"));  // domain separation from other HMAC uses
  w.u64(timestamp);
  w.bytes(plaintext);
  return crypto::hmac_sha256(
      ByteView{session_key.data(), session_key.size()}, std::move(w).take());
}

net::Envelope make_signed_proto(const crypto::Signer& signer,
                                std::uint32_t type, SharedBytes payload) {
  net::Envelope env;
  env.src = signer.id();
  env.type = type;
  env.payload = std::move(payload);
  net::sign_envelope(env, signer);
  return env;
}

net::Envelope make_pre_prepare_envelope(const SplitPrePrepare& pp,
                                        const crypto::Signer& signer,
                                        principal::Id dst) {
  net::Envelope env;
  env.src = signer.id();
  env.dst = dst;
  env.type = pbft::tag(pbft::MsgType::PrePrepare);
  env.payload = pp.serialize();
  env.signature = signer.sign(pp.header_bytes());
  return env;
}

bool verify_pre_prepare_envelope(const net::Envelope& env,
                                 const SplitPrePrepare& pp,
                                 const crypto::Verifier& verifier,
                                 principal::Id signer) {
  (void)env;
  return verifier.verify(signer, pp.header_bytes(), env.signature);
}

bool verify_pre_prepare_envelope(const net::Envelope& env,
                                 const SplitPrePrepare& pp,
                                 net::VerifyCache& cache,
                                 principal::Id signer) {
  return cache.check_raw(signer, pp.header_bytes(), env.signature);
}

// ----------------------------------------------------------------- attest

Bytes AttestRequest::serialize() const {
  Writer w;
  w.u32(client);
  w.bytes(nonce);
  return std::move(w).take();
}

std::optional<AttestRequest> AttestRequest::deserialize(ByteView data) {
  Reader r(data);
  AttestRequest m;
  m.client = r.u32();
  m.nonce = r.bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes AttestReport::serialize() const {
  Writer w;
  w.u32(replica);
  w.u8(static_cast<std::uint8_t>(compartment));
  w.bytes(quote);
  return std::move(w).take();
}

std::optional<AttestReport> AttestReport::deserialize(ByteView data) {
  Reader r(data);
  AttestReport m;
  m.replica = r.u32();
  m.compartment = static_cast<Compartment>(r.u8());
  m.quote = r.bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes ReportData::serialize() const {
  Writer w;
  w.u64(signing_principal);
  put_key(w, dh_public);
  w.bytes(nonce);
  return std::move(w).take();
}

std::optional<ReportData> ReportData::deserialize(ByteView data) {
  Reader r(data);
  ReportData m;
  m.signing_principal = r.u64();
  m.dh_public = get_key(r);
  m.nonce = r.bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------- session

Bytes SessionInit::auth_input() const {
  Writer w;
  w.u32(client);
  put_key(w, client_dh_public);
  w.bytes(sealed_session_key);
  return std::move(w).take();
}

Bytes SessionInit::serialize() const {
  Writer w;
  w.raw(auth_input());
  w.bytes(auth);
  return std::move(w).take();
}

std::optional<SessionInit> SessionInit::deserialize(ByteView data) {
  Reader r(data);
  SessionInit m;
  m.client = r.u32();
  m.client_dh_public = get_key(r);
  m.sealed_session_key = r.bytes();
  m.auth = r.bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes SessionAck::auth_input() const {
  Writer w;
  w.u32(client);
  w.u32(replica);
  return std::move(w).take();
}

Bytes SessionAck::serialize() const {
  Writer w;
  w.raw(auth_input());
  w.bytes(auth);
  return std::move(w).take();
}

std::optional<SessionAck> SessionAck::deserialize(ByteView data) {
  Reader r(data);
  SessionAck m;
  m.client = r.u32();
  m.replica = r.u32();
  m.auth = r.bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// ----------------------------------------------------------------- outbox

Bytes encode_outbox(const std::vector<net::Envelope>& envs) {
  // One buffer, sized once: each envelope's wire image is written straight
  // into it, with no per-envelope image built and copied.
  std::size_t size = 4;
  for (const auto& env : envs) size += 4 + env.wire_size();
  Writer w(size);
  w.u32(static_cast<std::uint32_t>(envs.size()));
  for (const auto& env : envs) {
    w.u32(static_cast<std::uint32_t>(env.wire_size()));
    env.write_wire(w);
  }
  return std::move(w).take();
}

std::optional<std::vector<net::Envelope>> decode_outbox(SharedBytes data) {
  Reader r(data.view());
  const std::uint32_t n = r.u32();
  if (n > 100'000) return std::nullopt;
  // Each entry is a length prefix plus a minimal envelope: bound the count
  // by the input before reserving.
  if (n > r.remaining() / kMinOutboxEntry) return std::nullopt;
  std::vector<net::Envelope> envs;
  envs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t len = r.u32();
    const std::size_t offset = r.position();
    r.skip(len);
    if (r.failed()) return std::nullopt;
    // A slice of the one result buffer: the envelope's payload, signature
    // and wire image all alias it.
    auto env = net::Envelope::from_frame(data.slice(offset, len));
    if (!env) return std::nullopt;
    envs.push_back(std::move(*env));
  }
  if (!r.done()) return std::nullopt;
  return envs;
}

}  // namespace sbft::splitbft
