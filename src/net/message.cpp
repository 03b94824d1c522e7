#include "net/message.hpp"

#include <atomic>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace sbft::net {

namespace {

std::atomic<std::uint64_t> g_digests_computed{0};
std::atomic<std::uint64_t> g_wire_builds{0};

/// Same view of the same immutable buffer (cheap identity; content-implied
/// because frames never mutate and the memo's keepalive copy pins the
/// buffer against address reuse).
[[nodiscard]] bool same_frame_loc(const SharedBytes& a,
                                  const SharedBytes& b) noexcept {
  return a.data() == b.data() && a.size() == b.size();
}

// Wire layout (all little-endian):
//   [0]  src  u64
//   [8]  dst  u64
//   [16] type u32
//   [20] payload length u32
//   [24] payload
//   [24+n] signature length u32
//   [28+n] signature
// The signing input (type || len || payload) is the contiguous range
// [16, 24+n) — received envelopes alias it instead of rebuilding it.
constexpr std::size_t kHeaderBytes = 16;   // src + dst
constexpr std::size_t kSigningPrefix = 8;  // type + payload length
static_assert(Envelope::kMinWireBytes == kHeaderBytes + kSigningPrefix + 4);

}  // namespace

std::uint64_t envelope_digests_computed() noexcept {
  return g_digests_computed.load(std::memory_order_relaxed);
}

std::uint64_t envelope_wire_builds() noexcept {
  return g_wire_builds.load(std::memory_order_relaxed);
}

bool Envelope::memo_base_valid() const noexcept {
  return memo_ && memo_->type == type &&
         same_frame_loc(memo_->payload_key, payload);
}

void Envelope::ensure_base_memo() const {
  if (memo_base_valid()) return;
  auto m = std::make_shared<Memo>();
  m->payload_key = payload;
  m->type = type;
  Writer w;
  w.reserve(kSigningPrefix + payload.size());
  w.u32(type);
  w.bytes(payload);
  m->signing = SharedBytes(std::move(w).take());
  memo_ = std::move(m);
}

ByteView Envelope::signing_input_view() const {
  ensure_base_memo();
  return memo_->signing.view();
}

Digest Envelope::digest() const {
  ensure_base_memo();
  const Memo& m = *memo_;
  // Shared across every copy of this message: whichever copy asks first
  // computes, all others reuse.
  std::call_once(m.digest_once, [&m] {
    m.digest = crypto::sha256(m.signing);
    g_digests_computed.fetch_add(1, std::memory_order_relaxed);
  });
  return m.digest;
}

SharedBytes Envelope::wire() const {
  if (memo_base_valid() && !wire_image_.empty() && wire_src_ == src &&
      wire_dst_ == dst && same_frame_loc(wire_signature_key_, signature)) {
    return wire_image_;
  }
  // The memo keys the cached image (memo_base_valid above).
  ensure_base_memo();
  Writer w(wire_size());
  write_wire(w);
  wire_image_ = SharedBytes(std::move(w).take());
  wire_src_ = src;
  wire_dst_ = dst;
  wire_signature_key_ = signature;
  g_wire_builds.fetch_add(1, std::memory_order_relaxed);
  return wire_image_;
}

std::size_t Envelope::wire_size() const noexcept {
  return kHeaderBytes + kSigningPrefix + payload.size() + 4 +
         signature.size();
}

void Envelope::write_wire(Writer& w) const {
  w.u64(src);
  w.u64(dst);
  w.u32(type);
  w.bytes(payload);
  w.bytes(signature);
}

std::optional<Envelope> Envelope::from_frame(SharedBytes frame) {
  Reader r(frame.view());
  Envelope env;
  env.src = r.u64();
  env.dst = r.u64();
  env.type = r.u32();
  const std::uint32_t payload_len = r.u32();
  const std::size_t payload_off = r.position();
  r.skip(payload_len);
  const std::uint32_t sig_len = r.u32();
  const std::size_t sig_off = r.position();
  r.skip(sig_len);
  if (!r.done()) return std::nullopt;

  env.payload = frame.slice(payload_off, payload_len);
  env.signature = frame.slice(sig_off, sig_len);

  // Seed the caches: the received frame IS the wire image, and the signing
  // input aliases it — relaying or verifying this envelope allocates
  // nothing further.
  auto m = std::make_shared<Memo>();
  m->payload_key = env.payload;
  m->type = env.type;
  m->signing = frame.slice(kHeaderBytes, kSigningPrefix + payload_len);
  env.memo_ = std::move(m);
  env.wire_src_ = env.src;
  env.wire_dst_ = env.dst;
  env.wire_signature_key_ = env.signature;
  env.wire_image_ = std::move(frame);
  return env;
}

std::optional<Envelope> Envelope::deserialize(ByteView data) {
  return from_frame(SharedBytes::copy_of(data));
}

Bytes signing_input(std::uint32_t type, ByteView payload) {
  Writer w;
  w.reserve(kSigningPrefix + payload.size());
  w.u32(type);
  w.bytes(payload);
  return std::move(w).take();
}

void sign_envelope(Envelope& env, const crypto::Signer& signer) {
  env.signature = SharedBytes(signer.sign(env.signing_input_view()));
}

bool verify_envelope(const Envelope& env, const crypto::Verifier& verifier,
                     principal::Id claimed_signer) {
  return verifier.verify(claimed_signer, env.signing_input_view(),
                         env.signature);
}

}  // namespace sbft::net
