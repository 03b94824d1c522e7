#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"

namespace sbft::crypto {
namespace {

[[nodiscard]] Key32 test_key(std::uint8_t fill = 0) {
  Key32 k{};
  for (std::size_t i = 0; i < k.size(); ++i) {
    k[i] = static_cast<std::uint8_t>(i + fill);
  }
  return k;
}

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
  // counter 1.
  const Key32 key = test_key();
  Nonce12 nonce{};
  nonce[3] = 0x09;
  nonce[7] = 0x4a;

  const Bytes zeros(64, 0);
  Bytes keystream(64);
  chacha20_xor(key, nonce, 1, zeros, keystream.data());
  EXPECT_EQ(to_hex(keystream),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(Poly1305, Rfc8439TagVector) {
  // RFC 8439 §2.5.2.
  const auto key_bytes = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  ASSERT_TRUE(key_bytes.has_value());
  Key32 key;
  std::copy(key_bytes->begin(), key_bytes->end(), key.begin());
  const Bytes msg = to_bytes("Cryptographic Forum Research Group");
  const Tag16 tag = poly1305(key, msg);
  EXPECT_EQ(to_hex(ByteView{tag.data(), tag.size()}),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Aead, RoundTrip) {
  const Key32 key = test_key(7);
  const Nonce12 nonce = make_nonce(1, 42);
  const Bytes aad = to_bytes("header");
  const Bytes plaintext = to_bytes("attack at dawn");

  const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + 16);

  const auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, EmptyPlaintext) {
  const Key32 key = test_key();
  const Nonce12 nonce = make_nonce(0, 0);
  const Bytes sealed = aead_seal(key, nonce, {}, {});
  EXPECT_EQ(sealed.size(), 16u);
  const auto opened = aead_open(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, RejectsTamperedCiphertext) {
  const Key32 key = test_key();
  const Nonce12 nonce = make_nonce(1, 1);
  Bytes sealed = aead_seal(key, nonce, {}, to_bytes("secret"));
  sealed[0] ^= 1;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, RejectsTamperedTag) {
  const Key32 key = test_key();
  const Nonce12 nonce = make_nonce(1, 1);
  Bytes sealed = aead_seal(key, nonce, {}, to_bytes("secret"));
  sealed.back() ^= 1;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, RejectsWrongAad) {
  const Key32 key = test_key();
  const Nonce12 nonce = make_nonce(1, 1);
  const Bytes sealed = aead_seal(key, nonce, to_bytes("aad1"), to_bytes("x"));
  EXPECT_FALSE(aead_open(key, nonce, to_bytes("aad2"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, nonce, to_bytes("aad1"), sealed).has_value());
}

TEST(Aead, RejectsWrongNonce) {
  const Key32 key = test_key();
  const Bytes sealed = aead_seal(key, make_nonce(1, 1), {}, to_bytes("x"));
  EXPECT_FALSE(aead_open(key, make_nonce(1, 2), {}, sealed).has_value());
}

TEST(Aead, RejectsWrongKey) {
  const Bytes sealed = aead_seal(test_key(1), make_nonce(1, 1), {},
                                 to_bytes("x"));
  EXPECT_FALSE(aead_open(test_key(2), make_nonce(1, 1), {}, sealed).has_value());
}

TEST(Aead, RejectsTruncated) {
  const Key32 key = test_key();
  const Bytes sealed = aead_seal(key, make_nonce(1, 1), {}, to_bytes("x"));
  const ByteView truncated{sealed.data(), 10};
  EXPECT_FALSE(aead_open(key, make_nonce(1, 1), {}, truncated).has_value());
}

TEST(Aead, RandomizedRoundTrips) {
  Rng rng(1234);
  const Key32 key = test_key(3);
  for (int i = 0; i < 50; ++i) {
    const Bytes plaintext = rng.bytes(rng.below(500));
    const Bytes aad = rng.bytes(rng.below(40));
    const Nonce12 nonce = make_nonce(2, static_cast<std::uint64_t>(i));
    const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
    const auto opened = aead_open(key, nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, plaintext);
  }
}

// The construction as it was first written: the MAC input assembled in a
// heap vector and tagged by one-shot Poly1305. The in-place seal/open must
// produce exactly its bytes.
[[nodiscard]] Bytes reference_seal(const Key32& key, const Nonce12& nonce,
                                   ByteView aad, ByteView plaintext) {
  Bytes out(plaintext.size() + 16);
  chacha20_xor(key, nonce, 1, plaintext, out.data());
  std::array<std::uint8_t, 64> block0{};
  chacha20_xor(key, nonce, 0, ByteView{block0.data(), block0.size()},
               block0.data());
  Key32 otk;
  std::copy_n(block0.begin(), otk.size(), otk.begin());
  Bytes mac_data(aad.begin(), aad.end());
  mac_data.resize((mac_data.size() + 15) / 16 * 16, 0);
  mac_data.insert(mac_data.end(), out.begin(), out.end() - 16);
  mac_data.resize((mac_data.size() + 15) / 16 * 16, 0);
  for (const std::uint64_t len : {static_cast<std::uint64_t>(aad.size()),
                                  static_cast<std::uint64_t>(
                                      plaintext.size())}) {
    for (int i = 0; i < 8; ++i) {
      mac_data.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
  }
  const Tag16 tag = poly1305(otk, mac_data);
  std::copy(tag.begin(), tag.end(), out.end() - 16);
  return out;
}

TEST(AeadInPlace, Rfc8439AeadVector) {
  // RFC 8439 §2.8.2.
  Key32 key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x80 + i);
  }
  const Nonce12 nonce{0x07, 0x00, 0x00, 0x00, 0x40, 0x41,
                      0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  const auto aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  ASSERT_TRUE(aad.has_value());
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  const std::string expected =
      "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
      "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
      "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
      "3ff4def08e4b7a9de576d26586cec64b6116"
      "1ae10b594f09e26a7e902ecbd0600691";

  Bytes sealed(plaintext.size() + kAeadTagBytes);
  aead_seal_into(key, nonce, *aad, plaintext, sealed.data());
  EXPECT_EQ(to_hex(sealed), expected);
  EXPECT_EQ(aead_seal(key, nonce, *aad, plaintext), sealed);

  Bytes opened(plaintext.size());
  ASSERT_TRUE(aead_open_into(key, nonce, *aad, sealed, opened.data()));
  EXPECT_EQ(opened, plaintext);
}

TEST(AeadInPlace, MatchesReferenceConstructionAcrossBlockEdges) {
  // Plaintexts of 0-300 B and AAD of 0-40 B cross the 16 B Poly1305 and
  // 64 B ChaCha20 block edges on both inputs.
  Rng rng(8439);
  const Key32 key = test_key(11);
  std::uint64_t seq = 0;
  for (std::size_t pt_len = 0; pt_len <= 300; ++pt_len) {
    const std::size_t aad_len = pt_len % 41;
    const Bytes plaintext = rng.bytes(pt_len);
    const Bytes aad = rng.bytes(aad_len);
    const Nonce12 nonce = make_nonce(5, ++seq);
    const Bytes expected = reference_seal(key, nonce, aad, plaintext);

    Bytes sealed(pt_len + kAeadTagBytes);
    aead_seal_into(key, nonce, aad, plaintext, sealed.data());
    ASSERT_EQ(sealed, expected) << "pt " << pt_len << " aad " << aad_len;
    ASSERT_EQ(aead_seal(key, nonce, aad, plaintext), expected);

    Bytes opened(pt_len);
    ASSERT_TRUE(aead_open_into(key, nonce, aad, sealed, opened.data()));
    ASSERT_EQ(opened, plaintext);
    const auto copied = aead_open(key, nonce, aad, sealed);
    ASSERT_TRUE(copied.has_value());
    ASSERT_EQ(*copied, plaintext);
  }
}

TEST(AeadInPlace, SealsInPlaceOverThePlaintext) {
  const Key32 key = test_key(4);
  const Nonce12 nonce = make_nonce(9, 9);
  const Bytes plaintext = Rng(77).bytes(130);
  Bytes buffer = plaintext;
  buffer.resize(plaintext.size() + kAeadTagBytes);
  aead_seal_into(key, nonce, {}, ByteView{buffer.data(), plaintext.size()},
                 buffer.data());
  EXPECT_EQ(buffer, reference_seal(key, nonce, {}, plaintext));
}

TEST(AeadInPlace, AnyFlippedByteOfCiphertextTagOrAadFailsOpen) {
  Rng rng(99);
  const Key32 key = test_key(6);
  for (const std::size_t pt_len : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u}) {
    for (const std::size_t aad_len : {0u, 1u, 16u, 17u}) {
      const Bytes plaintext = rng.bytes(pt_len);
      const Bytes aad = rng.bytes(aad_len);
      const Nonce12 nonce = make_nonce(3, pt_len * 100 + aad_len);
      const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
      // A failed open leaves the output untouched.
      const Bytes sentinel(pt_len, 0xa5);
      for (std::size_t i = 0; i < sealed.size(); ++i) {
        Bytes tampered = sealed;
        tampered[i] ^= 0x01;
        Bytes out = sentinel;
        EXPECT_FALSE(aead_open_into(key, nonce, aad, tampered, out.data()))
            << "sealed byte " << i << " of " << sealed.size();
        EXPECT_EQ(out, sentinel);
      }
      for (std::size_t i = 0; i < aad.size(); ++i) {
        Bytes tampered = aad;
        tampered[i] ^= 0x80;
        Bytes out = sentinel;
        EXPECT_FALSE(aead_open_into(key, nonce, tampered, sealed, out.data()))
            << "aad byte " << i;
      }
      Bytes out(pt_len);
      EXPECT_TRUE(aead_open_into(key, nonce, aad, sealed, out.data()));
      EXPECT_EQ(out, plaintext);
    }
  }
}

TEST(AeadInPlace, OpenRejectsInputShorterThanTag) {
  const Key32 key = test_key();
  const Bytes sealed = aead_seal(key, make_nonce(1, 1), {}, {});
  std::uint8_t out = 0x5a;
  EXPECT_FALSE(aead_open_into(key, make_nonce(1, 1), {},
                              ByteView{sealed.data(), kAeadTagBytes - 1},
                              &out));
  EXPECT_EQ(out, 0x5a);
}

TEST(Nonce, ChannelAndSeqLayout) {
  const Nonce12 n = make_nonce(0x01020304, 0x0506070809aabbccULL);
  // Low 8 bytes = seq (LE), high 4 = channel (LE).
  EXPECT_EQ(n[8], 0x04);
  EXPECT_EQ(n[11], 0x01);
  EXPECT_NE(make_nonce(1, 5), make_nonce(2, 5));
  EXPECT_NE(make_nonce(1, 5), make_nonce(1, 6));
}

}  // namespace
}  // namespace sbft::crypto
