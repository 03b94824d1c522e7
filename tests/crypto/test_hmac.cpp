#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace sbft::crypto {
namespace {

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case6) {
  // A 131-byte key is longer than the block and is hashed first.
  const Bytes key(131, 0xaa);
  const Bytes data =
      to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7) {
  // Long key and 152 bytes of data: the inner hash spans several blocks.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, KeySensitivity) {
  const Bytes data = to_bytes("same message");
  EXPECT_NE(hmac_sha256(to_bytes("key1"), data),
            hmac_sha256(to_bytes("key2"), data));
}

TEST(HmacSha256, MessageSensitivity) {
  const Bytes key = to_bytes("key");
  EXPECT_NE(hmac_sha256(key, to_bytes("a")), hmac_sha256(key, to_bytes("b")));
}

TEST(HmacSha256, ConcatMatchesJoined) {
  const Bytes key = to_bytes("k");
  const Bytes a = to_bytes("part one |");
  const Bytes b = to_bytes("| part two");
  Bytes joined = a;
  append(joined, b);
  EXPECT_EQ(hmac_sha256_concat(key, a, b), hmac_sha256(key, joined));
}

TEST(HmacSha256, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("secret");
  const Bytes data = to_bytes("message");
  const Digest mac = hmac_sha256(key, data);
  EXPECT_TRUE(hmac_verify(key, data, mac.view()));

  Digest bad = mac;
  bad.bytes[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, data, bad.view()));
  EXPECT_FALSE(hmac_verify(key, to_bytes("other"), mac.view()));
  EXPECT_FALSE(hmac_verify(to_bytes("wrong"), data, mac.view()));
}

TEST(DeriveKey, LabelSeparation) {
  const Bytes master = to_bytes("master-key-material");
  const Key32 k1 = derive_key(master, "label-a");
  const Key32 k2 = derive_key(master, "label-b");
  EXPECT_NE(k1, k2);
}

TEST(DeriveKey, ContextSeparation) {
  const Bytes master = to_bytes("master");
  const Bytes ctx1 = {1};
  const Bytes ctx2 = {2};
  EXPECT_NE(derive_key(master, "l", ctx1), derive_key(master, "l", ctx2));
}

TEST(DeriveKey, Deterministic) {
  const Bytes master = to_bytes("master");
  EXPECT_EQ(derive_key(master, "l"), derive_key(master, "l"));
}

}  // namespace
}  // namespace sbft::crypto
