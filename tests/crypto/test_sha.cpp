#include <gtest/gtest.h>

#include <utility>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"
#include "crypto/sha512.hpp"

namespace sbft::crypto {
namespace {

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(sha256({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha256(to_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  // FIPS 180-4 two-block message test.
  const auto msg =
      to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(sha256(msg).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const Digest expected = sha256(data);

  // Feed in awkward chunk sizes crossing block boundaries.
  for (const std::size_t chunk : {1u, 3u, 63u, 64u, 65u, 127u, 129u}) {
    Sha256 h;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t take = std::min(chunk, data.size() - off);
      h.update(ByteView{data.data() + off, take});
      off += take;
    }
    EXPECT_EQ(h.finalize(), expected) << "chunk=" << chunk;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // Lengths of 'a' around the 55/56-byte padding split and the 64-byte
  // block edge, one- and two-block, against hashlib's answers.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {1000,
       "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"},
  };
  for (const auto& [n, hex] : cases) {
    EXPECT_EQ(sha256(Bytes(n, 0x61)).hex(), hex) << "n=" << n;
  }
}

TEST(Sha256, MillionAVector) {
  // FIPS 180-4 long-message vector: one update of 15625 whole blocks.
  EXPECT_EQ(sha256(Bytes(1'000'000, 0x61)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, HardwareCompressionMatchesPortable) {
  const detail::Sha256Compress hw = detail::sha256_compress_hw();
  if (hw == nullptr) {
    GTEST_SKIP() << "no SHA-NI compression here (CPUID lacks the SHA "
                    "extensions or the build is not x86-64); Sha256 uses "
                    << detail::sha256_impl_name();
  }
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t blocks = 1 + rng.below(17);
    const Bytes data = rng.bytes(64 * blocks);
    detail::Sha256State start;
    for (auto& word : start) word = static_cast<std::uint32_t>(rng.next_u64());
    detail::Sha256State portable = start;
    detail::Sha256State hardware = start;
    detail::sha256_compress_portable(portable, data.data(), blocks);
    hw(hardware, data.data(), blocks);
    EXPECT_EQ(hardware, portable) << "trial=" << trial << " blocks=" << blocks;
  }
}

TEST(Sha256, ConcatHelper) {
  const Bytes a = to_bytes("hello ");
  const Bytes b = to_bytes("world");
  Bytes joined = a;
  append(joined, b);
  EXPECT_EQ(sha256_concat(a, b), sha256(joined));
}

TEST(Sha256, ResetReuses) {
  Sha256 h;
  h.update(to_bytes("abc"));
  (void)h.finalize();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(h.finalize().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256(to_bytes("a")), sha256(to_bytes("b")));
  EXPECT_NE(sha256(to_bytes("")), sha256(Bytes{0}));
}

TEST(Sha512, EmptyVector) {
  const Digest64 d = sha512({});
  EXPECT_EQ(to_hex(ByteView{d.data(), d.size()}),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, AbcVector) {
  const Digest64 d = sha512(to_bytes("abc"));
  EXPECT_EQ(to_hex(ByteView{d.data(), d.size()}),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 3000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const Digest64 expected = sha512(data);
  for (const std::size_t chunk : {1u, 7u, 127u, 128u, 129u, 255u}) {
    Sha512 h;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t take = std::min(chunk, data.size() - off);
      h.update(ByteView{data.data() + off, take});
      off += take;
    }
    EXPECT_EQ(h.finalize(), expected) << "chunk=" << chunk;
  }
}

TEST(Sha512, PaddingBoundaries) {
  for (const std::size_t n : {111u, 112u, 127u, 128u, 129u, 240u}) {
    Bytes data(n, 0x62);
    Sha512 h;
    h.update(data);
    EXPECT_EQ(h.finalize(), sha512(data)) << "n=" << n;
  }
}

}  // namespace
}  // namespace sbft::crypto
