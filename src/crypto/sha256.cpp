#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_detail.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sbft::crypto {

namespace detail {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

[[nodiscard]] constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

void process_block(Sha256State& state, const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

// SHA-NI compression after Intel's reference flow (Gulley et al., "Intel
// SHA Extensions"). sha256rnds2 runs two rounds on the state split as
// ABEF/CDGH; each of the 16 groups below runs four rounds on one message
// vector and advances the schedule three vectors ahead with sha256msg1/2.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    Sha256State& state, const std::uint8_t* data,
    std::size_t blocks) noexcept {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1b);
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i abef = _mm_alignr_epi8(cdab, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          byteswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i cur = msg[g % 4];
      const __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(
                   reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g >= 1 && g <= 12) {
        __m128i& prev = msg[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif

}  // namespace

void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) process_block(state, data);
}

Sha256Compress sha256_compress_hw() noexcept {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") &&
           __builtin_cpu_supports("sse4.1") && __builtin_cpu_supports("ssse3");
  }();
  return supported ? &compress_shani : nullptr;
#else
  return nullptr;
#endif
}

const char* sha256_impl_name() noexcept {
  return sha256_compress_hw() ? "sha-ni" : "portable";
}

}  // namespace detail

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t count) noexcept {
  static const detail::Sha256Compress chosen = [] {
    const detail::Sha256Compress hw = detail::sha256_compress_hw();
    return hw ? hw : &detail::sha256_compress_portable;
  }();
  chosen(state_, blocks, count);
}

void Sha256::update(ByteView data) noexcept {
  // An empty view may carry a null data(); memcpy from null is UB even
  // with a zero length, so bail out before touching pointers.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole_blocks = (data.size() - offset) / 64;
  if (whole_blocks > 0) {
    compress(data.data() + offset, whole_blocks);
    offset += whole_blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest Sha256::finalize() noexcept {
  // update() never leaves a full buffer, so the 0x80 marker always fits;
  // when the 8-byte length no longer does, it goes in one more block.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(ByteView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256_concat(ByteView a, ByteView b) noexcept {
  Sha256 h;
  h.update(a);
  h.update(b);
  return h.finalize();
}

}  // namespace sbft::crypto
