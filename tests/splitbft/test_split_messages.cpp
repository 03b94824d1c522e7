#include <gtest/gtest.h>

#include "common/serde.hpp"
#include "crypto/keyring.hpp"
#include "splitbft/messages.hpp"

namespace sbft::splitbft {
namespace {

[[nodiscard]] SplitPrePrepare sample_pp() {
  SplitPrePrepare pp;
  pp.view = 2;
  pp.seq = 9;
  pp.batch = to_bytes("serialized batch");
  pp.batch_digest.bytes[0] = 0xaa;
  pp.sender = 1;
  pp.has_batch = true;
  return pp;
}

TEST(SplitMessages, PrePrepareRoundTrip) {
  const SplitPrePrepare pp = sample_pp();
  const auto decoded = SplitPrePrepare::deserialize(pp.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->view, 2u);
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->batch, pp.batch);
  EXPECT_TRUE(decoded->has_batch);
}

TEST(SplitMessages, StrippingPreservesHeader) {
  const SplitPrePrepare pp = sample_pp();
  const SplitPrePrepare stripped = pp.stripped();
  EXPECT_FALSE(stripped.has_batch);
  EXPECT_TRUE(stripped.batch.empty());
  EXPECT_EQ(stripped.header_bytes(), pp.header_bytes());
}

TEST(SplitMessages, HeaderSignatureSurvivesStripping) {
  crypto::KeyRing ring(crypto::Scheme::HmacShared, 3);
  ring.add_principal(100);
  const auto signer = ring.signer(100);
  const auto verifier = ring.verifier();

  const SplitPrePrepare pp = sample_pp();
  const net::Envelope env = make_pre_prepare_envelope(pp, *signer, 0);
  EXPECT_TRUE(verify_pre_prepare_envelope(env, pp, *verifier, 100));

  // The untrusted broker strips the batch; the signature stays valid
  // because it covers only the header.
  net::Envelope stripped_env = env;
  const SplitPrePrepare stripped = pp.stripped();
  stripped_env.payload = stripped.serialize();
  EXPECT_TRUE(
      verify_pre_prepare_envelope(stripped_env, stripped, *verifier, 100));

  // Tampering with the digest breaks it.
  SplitPrePrepare forged = stripped;
  forged.batch_digest.bytes[0] ^= 1;
  EXPECT_FALSE(
      verify_pre_prepare_envelope(stripped_env, forged, *verifier, 100));
}

TEST(SplitMessages, AttestRoundTrips) {
  AttestRequest req;
  req.client = 1001;
  req.nonce = to_bytes("nonce123");
  const auto dreq = AttestRequest::deserialize(req.serialize());
  ASSERT_TRUE(dreq.has_value());
  EXPECT_EQ(dreq->nonce, req.nonce);

  AttestReport report;
  report.replica = 2;
  report.compartment = Compartment::Execution;
  report.quote = to_bytes("quote");
  const auto dreport = AttestReport::deserialize(report.serialize());
  ASSERT_TRUE(dreport.has_value());
  EXPECT_EQ(dreport->compartment, Compartment::Execution);

  ReportData rd;
  rd.signing_principal = 0x0207;
  rd.dh_public[0] = 9;
  rd.nonce = to_bytes("n");
  const auto drd = ReportData::deserialize(rd.serialize());
  ASSERT_TRUE(drd.has_value());
  EXPECT_EQ(drd->signing_principal, 0x0207u);
  EXPECT_EQ(drd->dh_public, rd.dh_public);
}

TEST(SplitMessages, SessionRoundTrips) {
  SessionInit init;
  init.client = 1001;
  init.client_dh_public[3] = 7;
  init.sealed_session_key = to_bytes("sealed");
  init.auth = to_bytes("mac");
  const auto dinit = SessionInit::deserialize(init.serialize());
  ASSERT_TRUE(dinit.has_value());
  EXPECT_EQ(dinit->sealed_session_key, to_bytes("sealed"));

  SessionAck ack;
  ack.client = 1001;
  ack.replica = 3;
  ack.auth = to_bytes("mac");
  const auto dack = SessionAck::deserialize(ack.serialize());
  ASSERT_TRUE(dack.has_value());
  EXPECT_EQ(dack->replica, 3u);
}

TEST(SplitMessages, OutboxRoundTrip) {
  std::vector<net::Envelope> envs(3);
  envs[0].type = 1;
  envs[1].payload = to_bytes("x");
  envs[2].dst = 42;
  const auto decoded = decode_outbox(SharedBytes(encode_outbox(envs)));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[1].payload, to_bytes("x"));
  EXPECT_EQ((*decoded)[2].dst, 42u);
}

TEST(SplitMessages, OutboxEmpty) {
  const auto decoded = decode_outbox(SharedBytes(encode_outbox({})));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(SplitMessages, OutboxRejectsGarbage) {
  EXPECT_FALSE(decode_outbox(SharedBytes(to_bytes("zz"))).has_value());
}

/// Three envelopes as an enclave emits them: a signed broadcast pair
/// sharing one payload frame, and an unsigned one.
[[nodiscard]] std::vector<net::Envelope> sample_outbox() {
  crypto::KeyRing ring(crypto::Scheme::HmacShared, 3);
  const principal::Id id = principal::enclave({1, Compartment::Execution});
  ring.add_principal(id);
  net::Envelope signed_env = make_signed_proto(
      *ring.signer(id), pbft::tag(pbft::MsgType::Checkpoint),
      SharedBytes(to_bytes("checkpoint body")));
  std::vector<net::Envelope> envs;
  for (const principal::Id dst : {principal::enclave({2, Compartment::Execution}),
                                  principal::enclave({3, Compartment::Execution})}) {
    signed_env.dst = dst;
    envs.push_back(signed_env);
  }
  net::Envelope reply;
  reply.src = id;
  reply.dst = principal::client(kFirstClientId);
  reply.type = pbft::tag(pbft::MsgType::Reply);
  reply.payload = SharedBytes(to_bytes("reply"));
  envs.push_back(reply);
  return envs;
}

TEST(SplitMessages, OutboxEncodeAllocatesOnceAndBuildsNoWireImage) {
  const auto envs = sample_outbox();
  const std::uint64_t builds = net::envelope_wire_builds();
  const std::uint64_t frames = SharedBytes::alloc_stats().allocations;
  const Bytes outbox = encode_outbox(envs);
  EXPECT_EQ(outbox.capacity(), outbox.size());  // sized once, never grown
  EXPECT_EQ(net::envelope_wire_builds(), builds);
  EXPECT_EQ(SharedBytes::alloc_stats().allocations, frames);

  // Same layout as the memoized wire images: a count, then each image
  // length-prefixed.
  Writer expected;
  expected.u32(static_cast<std::uint32_t>(envs.size()));
  for (const auto& env : envs) expected.bytes(env.wire());
  EXPECT_EQ(outbox, expected.data());
}

TEST(SplitMessages, OutboxDecodesEveryEnvelopeIntoTheOneResultBuffer) {
  const auto envs = sample_outbox();
  const SharedBytes frame(encode_outbox(envs));
  std::vector<SharedBytes> images;
  for (const auto& env : envs) images.push_back(env.wire());
  const std::uint64_t builds = net::envelope_wire_builds();
  const std::uint64_t frames = SharedBytes::alloc_stats().allocations;
  const auto decoded = decode_outbox(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), envs.size());
  std::size_t offset = 4;
  for (std::size_t i = 0; i < envs.size(); ++i) {
    const net::Envelope& env = (*decoded)[i];
    const std::size_t len = envs[i].wire_size();
    offset += 4;
    // wire() is the slice of the result frame the envelope was parsed from.
    EXPECT_TRUE(env.wire().same_buffer(frame.slice(offset, len))) << i;
    EXPECT_EQ(env.wire(), images[i]) << i;
    EXPECT_EQ(env, envs[i]) << i;
    offset += len;
  }
  EXPECT_EQ(offset, frame.size());
  // No frame was allocated or copied: every envelope holds slices of
  // `frame`, and wire() rebuilt nothing.
  EXPECT_EQ(SharedBytes::alloc_stats().allocations, frames);
  EXPECT_EQ(net::envelope_wire_builds(), builds);
  EXPECT_GT(frame.use_count(), static_cast<long>(1 + 2 * envs.size()));
}

TEST(SplitMessages, OutboxRejectsTruncatedOverlongAndGarbage) {
  const Bytes outbox = encode_outbox(sample_outbox());
  for (std::size_t len = 0; len < outbox.size(); ++len) {
    EXPECT_FALSE(decode_outbox(SharedBytes::copy_of(ByteView{outbox.data(), len})).has_value())
        << "truncated to " << len;
  }
  Bytes overlong = outbox;
  overlong.push_back(0);
  EXPECT_FALSE(decode_outbox(SharedBytes(std::move(overlong))).has_value());
  // A count the input cannot hold, and an entry longer than the input.
  Writer huge_count;
  huge_count.u32(50'000);
  huge_count.raw(Bytes(64, 0));
  EXPECT_FALSE(decode_outbox(SharedBytes::copy_of(huge_count.data())).has_value());
  Writer long_entry;
  long_entry.u32(1);
  long_entry.u32(1'000);
  long_entry.raw(Bytes(40, 0));
  EXPECT_FALSE(decode_outbox(SharedBytes::copy_of(long_entry.data())).has_value());
  // An entry that is not an envelope.
  Writer not_envelope;
  not_envelope.u32(1);
  not_envelope.bytes(Bytes(32, 0xff));
  EXPECT_FALSE(decode_outbox(SharedBytes::copy_of(not_envelope.data())).has_value());
}

TEST(SplitMessages, StripPayloadMatchesStrippedSerialize) {
  const SplitPrePrepare pp = sample_pp();
  const Bytes full = pp.serialize();
  const auto stripped = SplitPrePrepare::strip_payload(full);
  ASSERT_TRUE(stripped.has_value());
  EXPECT_EQ(*stripped, pp.stripped().serialize());
  // An already stripped pre-prepare strips to itself.
  EXPECT_EQ(SplitPrePrepare::strip_payload(*stripped), *stripped);
  // Rejected exactly where deserialize fails: truncated or trailing bytes.
  for (std::size_t len = 0; len < full.size(); ++len) {
    const ByteView cut{full.data(), len};
    EXPECT_EQ(SplitPrePrepare::strip_payload(cut).has_value(),
              SplitPrePrepare::deserialize(cut).has_value())
        << "truncated to " << len;
  }
  Bytes trailing = full;
  trailing.push_back(0);
  EXPECT_FALSE(SplitPrePrepare::strip_payload(trailing).has_value());
  EXPECT_FALSE(SplitPrePrepare::deserialize(trailing).has_value());
}

}  // namespace
}  // namespace sbft::splitbft
