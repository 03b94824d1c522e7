#include "crypto/aead.hpp"

#include <bit>
#include <cstring>

namespace sbft::crypto {

namespace {

[[nodiscard]] constexpr std::uint32_t rotl(std::uint32_t x, int n) noexcept {
  return std::rotl(x, n);
}

[[nodiscard]] std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) noexcept {
  a += b;
  d = rotl(d ^ a, 16);
  c += d;
  b = rotl(b ^ c, 12);
  a += b;
  d = rotl(d ^ a, 8);
  c += d;
  b = rotl(b ^ c, 7);
}

void chacha20_block(const Key32& key, const Nonce12& nonce,
                    std::uint32_t counter,
                    std::array<std::uint8_t, 64>& out) noexcept {
  std::array<std::uint32_t, 16> state;
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = load_le32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = load_le32(nonce.data() + 4 * i);
  }

  std::array<std::uint32_t, 16> x = state;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store_le32(out.data() + 4 * i, x[i] + state[i]);
  }
}

}  // namespace

void chacha20_xor(const Key32& key, const Nonce12& nonce, std::uint32_t counter,
                  ByteView input, std::uint8_t* output) noexcept {
  std::array<std::uint8_t, 64> block;
  std::size_t offset = 0;
  while (offset < input.size()) {
    chacha20_block(key, nonce, counter++, block);
    const std::size_t take = std::min<std::size_t>(64, input.size() - offset);
    for (std::size_t i = 0; i < take; ++i) {
      output[offset + i] = static_cast<std::uint8_t>(input[offset + i] ^
                                                     block[i]);
    }
    offset += take;
  }
}

namespace {

/// Poly1305 accumulator (26-bit limbs, poly1305-donna style). Fed whole
/// 16-byte blocks; `hibit` is 2^128 for a full block and 0 for the
/// one-shot MAC's padded final block.
class Poly1305 {
 public:
  explicit Poly1305(const Key32& key) noexcept
      : r0_(load_le32(key.data() + 0) & 0x3ffffff),
        r1_((load_le32(key.data() + 3) >> 2) & 0x3ffff03),
        r2_((load_le32(key.data() + 6) >> 4) & 0x3ffc0ff),
        r3_((load_le32(key.data() + 9) >> 6) & 0x3f03fff),
        r4_((load_le32(key.data() + 12) >> 8) & 0x00fffff),
        s1_(r1_ * 5),
        s2_(r2_ * 5),
        s3_(r3_ * 5),
        s4_(r4_ * 5),
        pad_{load_le32(key.data() + 16), load_le32(key.data() + 20),
             load_le32(key.data() + 24), load_le32(key.data() + 28)} {}

  /// Absorbs `count` consecutive 16-byte blocks at `m`. The state is held
  /// in locals across the loop: `m` is a byte pointer that may alias the
  /// members, so updating them per block would force a store and reload
  /// of every limb.
  void blocks(const std::uint8_t* m, std::size_t count,
              std::uint32_t hibit) noexcept {
    const std::uint32_t r0 = r0_, r1 = r1_, r2 = r2_, r3 = r3_, r4 = r4_;
    const std::uint32_t s1 = s1_, s2 = s2_, s3 = s3_, s4 = s4_;
    std::uint32_t h0 = h0_, h1 = h1_, h2 = h2_, h3 = h3_, h4 = h4_;
    const auto mul = [](std::uint32_t a, std::uint32_t b) {
      return static_cast<std::uint64_t>(a) * b;
    };
    for (; count > 0; --count, m += 16) {
      h0 += load_le32(m + 0) & 0x3ffffff;
      h1 += (load_le32(m + 3) >> 2) & 0x3ffffff;
      h2 += (load_le32(m + 6) >> 4) & 0x3ffffff;
      h3 += (load_le32(m + 9) >> 6) & 0x3ffffff;
      h4 += (load_le32(m + 12) >> 8) | hibit;

      const std::uint64_t d0 = mul(h0, r0) + mul(h1, s4) + mul(h2, s3) +
                               mul(h3, s2) + mul(h4, s1);
      std::uint64_t d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s4) +
                         mul(h3, s3) + mul(h4, s2);
      std::uint64_t d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0) +
                         mul(h3, s4) + mul(h4, s3);
      std::uint64_t d3 = mul(h0, r3) + mul(h1, r2) + mul(h2, r1) +
                         mul(h3, r0) + mul(h4, s4);
      std::uint64_t d4 = mul(h0, r4) + mul(h1, r3) + mul(h2, r2) +
                         mul(h3, r1) + mul(h4, r0);

      std::uint64_t c = d0 >> 26;
      h0 = static_cast<std::uint32_t>(d0) & 0x3ffffff;
      d1 += c;
      c = d1 >> 26;
      h1 = static_cast<std::uint32_t>(d1) & 0x3ffffff;
      d2 += c;
      c = d2 >> 26;
      h2 = static_cast<std::uint32_t>(d2) & 0x3ffffff;
      d3 += c;
      c = d3 >> 26;
      h3 = static_cast<std::uint32_t>(d3) & 0x3ffffff;
      d4 += c;
      c = d4 >> 26;
      h4 = static_cast<std::uint32_t>(d4) & 0x3ffffff;
      h0 += static_cast<std::uint32_t>(c) * 5;
      c = h0 >> 26;
      h0 &= 0x3ffffff;
      h1 += static_cast<std::uint32_t>(c);
    }
    h0_ = h0;
    h1_ = h1;
    h2_ = h2;
    h3_ = h3;
    h4_ = h4;
  }

  /// Feeds `data` as full blocks, zero-padding the last one to 16 bytes
  /// (the AEAD construction's pad16).
  void padded(ByteView data) noexcept {
    const std::size_t full = data.size() / 16;
    blocks(data.data(), full, kFullBlock);
    if (data.size() % 16 != 0) {
      std::array<std::uint8_t, 16> last{};
      std::memcpy(last.data(), data.data() + full * 16, data.size() % 16);
      blocks(last.data(), 1, kFullBlock);
    }
  }

  [[nodiscard]] Tag16 finish() noexcept {
    std::uint32_t h0 = h0_, h1 = h1_, h2 = h2_, h3 = h3_, h4 = h4_;
    // Full carry propagation.
    std::uint32_t c = h1 >> 26;
    h1 &= 0x3ffffff;
    h2 += c;
    c = h2 >> 26;
    h2 &= 0x3ffffff;
    h3 += c;
    c = h3 >> 26;
    h3 &= 0x3ffffff;
    h4 += c;
    c = h4 >> 26;
    h4 &= 0x3ffffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += c;

    // Compute h + -p and select.
    std::uint32_t g0 = h0 + 5;
    c = g0 >> 26;
    g0 &= 0x3ffffff;
    std::uint32_t g1 = h1 + c;
    c = g1 >> 26;
    g1 &= 0x3ffffff;
    std::uint32_t g2 = h2 + c;
    c = g2 >> 26;
    g2 &= 0x3ffffff;
    std::uint32_t g3 = h3 + c;
    c = g3 >> 26;
    g3 &= 0x3ffffff;
    std::uint32_t g4 = h4 + c - (1u << 26);

    std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if g4 >= 0 (h >= p)
    g0 &= mask;
    g1 &= mask;
    g2 &= mask;
    g3 &= mask;
    g4 &= mask;
    mask = ~mask;
    h0 = (h0 & mask) | g0;
    h1 = (h1 & mask) | g1;
    h2 = (h2 & mask) | g2;
    h3 = (h3 & mask) | g3;
    h4 = (h4 & mask) | g4;

    // h %= 2^128, serialize and add s.
    h0 = (h0 | (h1 << 26)) & 0xffffffff;
    h1 = ((h1 >> 6) | (h2 << 20)) & 0xffffffff;
    h2 = ((h2 >> 12) | (h3 << 14)) & 0xffffffff;
    h3 = ((h3 >> 18) | (h4 << 8)) & 0xffffffff;

    std::uint64_t f = static_cast<std::uint64_t>(h0) + pad_[0];
    h0 = static_cast<std::uint32_t>(f);
    f = static_cast<std::uint64_t>(h1) + pad_[1] + (f >> 32);
    h1 = static_cast<std::uint32_t>(f);
    f = static_cast<std::uint64_t>(h2) + pad_[2] + (f >> 32);
    h2 = static_cast<std::uint32_t>(f);
    f = static_cast<std::uint64_t>(h3) + pad_[3] + (f >> 32);
    h3 = static_cast<std::uint32_t>(f);

    Tag16 tag;
    store_le32(tag.data() + 0, h0);
    store_le32(tag.data() + 4, h1);
    store_le32(tag.data() + 8, h2);
    store_le32(tag.data() + 12, h3);
    return tag;
  }

  static constexpr std::uint32_t kFullBlock = 1u << 24;

 private:
  std::uint32_t r0_, r1_, r2_, r3_, r4_;
  std::uint32_t s1_, s2_, s3_, s4_;  // r1..r4 * 5, for the mod-p fold
  std::uint32_t pad_[4];
  std::uint32_t h0_{0}, h1_{0}, h2_{0}, h3_{0}, h4_{0};
};

/// RFC 8439 §2.8 tag: Poly1305 under the one-time key (block 0 of the
/// keystream) over aad || pad16 || ciphertext || pad16 || le64 lengths,
/// fed block by block with no assembled MAC input.
[[nodiscard]] Tag16 aead_tag(const Key32& key, const Nonce12& nonce,
                             ByteView aad, ByteView ciphertext) noexcept {
  // The keystream XORed over zeros. chacha20_xor stays chacha20_block's
  // only caller: GCC then inlines the block function into the XOR loop; an
  // out-of-line call made a 1 KB keystream about 1.5x slower (GCC -O3,
  // x86-64).
  Key32 otk{};
  chacha20_xor(key, nonce, 0, otk, otk.data());

  Poly1305 mac(otk);
  mac.padded(aad);
  mac.padded(ciphertext);
  std::array<std::uint8_t, 16> lengths;
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(aad.size()) >> (8 * i));
    lengths[8 + i] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(ciphertext.size()) >> (8 * i));
  }
  mac.blocks(lengths.data(), 1, Poly1305::kFullBlock);
  return mac.finish();
}

}  // namespace

Tag16 poly1305(const Key32& key, ByteView data) noexcept {
  Poly1305 mac(key);
  const std::size_t full = data.size() / 16;
  mac.blocks(data.data(), full, Poly1305::kFullBlock);
  if (data.size() % 16 != 0) {
    // Final partial block: a 1 byte after the message, no 2^128 bit.
    std::array<std::uint8_t, 16> last{};
    const std::size_t take = data.size() % 16;
    std::memcpy(last.data(), data.data() + full * 16, take);
    last[take] = 1;
    mac.blocks(last.data(), 1, 0);
  }
  return mac.finish();
}

void aead_seal_into(const Key32& key, const Nonce12& nonce, ByteView aad,
                    ByteView plaintext, std::uint8_t* out) noexcept {
  chacha20_xor(key, nonce, 1, plaintext, out);
  const Tag16 tag =
      aead_tag(key, nonce, aad, ByteView{out, plaintext.size()});
  std::memcpy(out + plaintext.size(), tag.data(), tag.size());
}

bool aead_open_into(const Key32& key, const Nonce12& nonce, ByteView aad,
                    ByteView sealed, std::uint8_t* out) noexcept {
  if (sealed.size() < kAeadTagBytes) return false;
  const ByteView ciphertext = sealed.first(sealed.size() - kAeadTagBytes);
  const ByteView tag = sealed.last(kAeadTagBytes);
  const Tag16 expected = aead_tag(key, nonce, aad, ciphertext);
  if (!ct_equal(ByteView{expected.data(), expected.size()}, tag)) {
    return false;
  }
  chacha20_xor(key, nonce, 1, ciphertext, out);
  return true;
}

Bytes aead_seal(const Key32& key, const Nonce12& nonce, ByteView aad,
                ByteView plaintext) {
  Bytes out(plaintext.size() + kAeadTagBytes);
  aead_seal_into(key, nonce, aad, plaintext, out.data());
  return out;
}

std::optional<Bytes> aead_open(const Key32& key, const Nonce12& nonce,
                               ByteView aad, ByteView sealed) {
  if (sealed.size() < kAeadTagBytes) return std::nullopt;
  Bytes plaintext(sealed.size() - kAeadTagBytes);
  if (!aead_open_into(key, nonce, aad, sealed, plaintext.data())) {
    return std::nullopt;
  }
  return plaintext;
}

Nonce12 make_nonce(std::uint32_t channel, std::uint64_t seq) noexcept {
  Nonce12 nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    nonce[8 + i] = static_cast<std::uint8_t>(channel >> (8 * i));
  }
  return nonce;
}

}  // namespace sbft::crypto
