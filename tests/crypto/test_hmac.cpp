#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
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
  EXPECT_EQ(hmac_sha256(hmac_key(key), a, b), hmac_sha256(key, joined));
}

TEST(HmacSha256, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("secret");
  const Bytes data = to_bytes("message");
  const Digest mac = hmac_sha256(key, data);
  EXPECT_TRUE(hmac_verify(hmac_key(key), data, mac.view()));

  Digest bad = mac;
  bad.bytes[0] ^= 1;
  EXPECT_FALSE(hmac_verify(hmac_key(key), data, bad.view()));
  EXPECT_FALSE(hmac_verify(hmac_key(key), to_bytes("other"), mac.view()));
  EXPECT_FALSE(hmac_verify(hmac_key(to_bytes("wrong")), data, mac.view()));
}

struct Rfc4231Case {
  Bytes key;
  Bytes data;
  std::string mac_hex;
};

[[nodiscard]] std::vector<Rfc4231Case> rfc4231_cases() {
  Bytes key4;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key4.push_back(b);
  return {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(HmacKey, MidstatesReproduceRfc4231AtEverySplit) {
  for (const Rfc4231Case& c : rfc4231_cases()) {
    const HmacKey key = hmac_key(c.key);
    for (std::size_t split = 0; split <= c.data.size(); ++split) {
      const ByteView data{c.data.data(), c.data.size()};
      EXPECT_EQ(hmac_sha256(key, data.first(split), data.subspan(split)).hex(),
                c.mac_hex)
          << "key " << c.key.size() << " B, split at " << split;
    }
    EXPECT_EQ(hmac_sha256(key, c.data).hex(), c.mac_hex);
  }
}

TEST(HmacKey, MatchesOneShotOverRandomSplits) {
  Rng rng(4231);
  for (int round = 0; round < 200; ++round) {
    Bytes key(rng.next_u64() % 140);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    Bytes joined(rng.next_u64() % 300);
    for (auto& b : joined) b = static_cast<std::uint8_t>(rng.next_u64());
    // Splits at both ends leave `a` or `b` empty.
    const std::size_t split =
        round % 4 == 0 ? 0
        : round % 4 == 1 ? joined.size()
                         : rng.next_u64() % (joined.size() + 1);
    const ByteView whole{joined.data(), joined.size()};
    EXPECT_EQ(hmac_sha256(hmac_key(key), whole.first(split),
                          whole.subspan(split)),
              hmac_sha256(key, joined))
        << "round " << round;
  }
  EXPECT_EQ(hmac_sha256(hmac_key({}), {}, {}), hmac_sha256(ByteView{}, {}));
}

TEST(HmacKey, SameKeySameMidstates) {
  EXPECT_EQ(hmac_key(to_bytes("k")), hmac_key(to_bytes("k")));
  EXPECT_NE(hmac_key(to_bytes("k")), hmac_key(to_bytes("K")));
  // A key of 65+ bytes is hashed to 32: the expansion must match that.
  const Bytes long_key(131, 0xaa);
  const Digest hashed = sha256(long_key);
  EXPECT_EQ(hmac_key(long_key), hmac_key(hashed.view()));
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
