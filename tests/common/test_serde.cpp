#include "common/serde.hpp"

#include <gtest/gtest.h>

namespace sbft {
namespace {

TEST(Serde, ScalarRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.boolean(true);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serde, BytesRoundTrip) {
  Writer w;
  const Bytes payload = {1, 2, 3, 4, 5};
  w.bytes(payload);
  w.str("hello");

  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Serde, EmptyBytes) {
  Writer w;
  w.bytes({});
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RawRoundTrip) {
  Writer w;
  const Bytes payload = {9, 8, 7};
  w.raw(payload);
  Reader r(w.data());
  EXPECT_EQ(r.raw(3), payload);
  EXPECT_TRUE(r.done());
}

TEST(Serde, ReaderFailsOnTruncatedScalar) {
  const Bytes data = {1, 2};
  Reader r(data);
  (void)r.u32();
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.done());
}

TEST(Serde, ReaderFailsOnOversizedLength) {
  // Length prefix claims 1000 bytes but only 2 follow.
  Writer w;
  w.u32(1000);
  w.u16(0xffff);
  Reader r(w.data());
  (void)r.bytes();
  EXPECT_TRUE(r.failed());
}

TEST(Serde, FailureIsSticky) {
  const Bytes data = {1};
  Reader r(data);
  (void)r.u64();
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.u8(), 0);  // still failed, returns 0
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serde, DoneRequiresFullConsumption) {
  Writer w;
  w.u32(7);
  Reader r(w.data());
  (void)r.u16();
  EXPECT_FALSE(r.done());
  (void)r.u16();
  EXPECT_TRUE(r.done());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serde, GoldenScalarBytes) {
  Writer w;
  w.u16(0x0102);
  w.u32(0x03040506);
  w.u64(0x0708090a0b0c0d0eULL);
  w.u16(0xffff);
  w.u32(0);
  w.u64(0xffffffffffffffffULL);
  const Bytes golden = {0x02, 0x01,                                      //
                        0x06, 0x05, 0x04, 0x03,                          //
                        0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07,  //
                        0xff, 0xff,                                      //
                        0x00, 0x00, 0x00, 0x00,                          //
                        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(w.data(), golden);
}

TEST(Serde, CapacityDoesNotChangeBytes) {
  const Bytes payload(300, 0x5a);
  const auto encode = [&payload](Writer w) {
    w.u64(42);
    w.bytes(payload);
    w.u16(7);
    return std::move(w).take();
  };
  const Bytes sized = encode(Writer(8 + 4 + payload.size() + 2));
  EXPECT_EQ(encode(Writer()), sized);
  EXPECT_EQ(encode(Writer(0)), sized);
  EXPECT_EQ(sized.size(), 8 + 4 + payload.size() + 2);
}

}  // namespace
}  // namespace sbft
