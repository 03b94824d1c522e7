#include <gtest/gtest.h>

#include <algorithm>

#include "common/serde.hpp"
#include "crypto/hmac.hpp"
#include "pbft/messages.hpp"

namespace sbft::pbft {
namespace {

[[nodiscard]] Request sample_request() {
  Request req;
  req.client = 1001;
  req.timestamp = 7;
  req.payload = to_bytes("operation");
  req.auth = Bytes(32, 0xaa);
  return req;
}

TEST(PbftMessages, RequestRoundTrip) {
  const Request req = sample_request();
  const auto decoded = Request::deserialize(req.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->client, req.client);
  EXPECT_EQ(decoded->timestamp, req.timestamp);
  EXPECT_EQ(decoded->payload, req.payload);
  EXPECT_EQ(decoded->auth, req.auth);
}

TEST(PbftMessages, RequestAuthInputExcludesAuth) {
  Request a = sample_request();
  Request b = sample_request();
  b.auth = Bytes(32, 0xbb);
  EXPECT_EQ(a.auth_input(), b.auth_input());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(PbftMessages, RequestDeserializeRejectsTrailingGarbage) {
  Bytes data = sample_request().serialize();
  data.push_back(0);
  EXPECT_FALSE(Request::deserialize(data).has_value());
}

TEST(PbftMessages, BatchRoundTrip) {
  RequestBatch batch;
  batch.requests.push_back(sample_request());
  Request second = sample_request();
  second.client = 1002;
  batch.requests.push_back(second);

  const auto decoded = RequestBatch::deserialize(batch.serialize());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->requests.size(), 2u);
  EXPECT_EQ(decoded->requests[1].client, 1002u);
  EXPECT_EQ(decoded->digest(), batch.digest());
}

TEST(PbftMessages, EmptyBatchIsValid) {
  const RequestBatch batch;
  const auto decoded = RequestBatch::deserialize(batch.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(PbftMessages, PrePrepareRoundTrip) {
  PrePrepare pp;
  pp.view = 3;
  pp.seq = 42;
  pp.batch = RequestBatch{}.serialize();
  pp.batch_digest = RequestBatch{}.digest();
  pp.sender = 2;
  const auto decoded = PrePrepare::deserialize(pp.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->view, 3u);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->batch_digest, pp.batch_digest);
  EXPECT_EQ(decoded->sender, 2u);
}

TEST(PbftMessages, PrepareCommitRoundTrip) {
  Prepare prep;
  prep.view = 1;
  prep.seq = 5;
  prep.batch_digest.bytes[0] = 9;
  prep.sender = 3;
  const auto dp = Prepare::deserialize(prep.serialize());
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->seq, 5u);

  Commit commit;
  commit.view = 1;
  commit.seq = 5;
  commit.batch_digest.bytes[1] = 8;
  commit.sender = 0;
  const auto dc = Commit::deserialize(commit.serialize());
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(dc->batch_digest, commit.batch_digest);
}

TEST(PbftMessages, ReplyRoundTripAndAuthInput) {
  Reply reply;
  reply.view = 2;
  reply.timestamp = 10;
  reply.client = 1001;
  reply.sender = 1;
  reply.result = to_bytes("result");
  reply.auth = Bytes(32, 1);
  const auto decoded = Reply::deserialize(reply.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, reply.result);

  Reply other = reply;
  other.auth = Bytes(32, 2);
  const crypto::HmacKey key = crypto::hmac_key(to_bytes("client key"));
  EXPECT_EQ(reply.mac(key), other.mac(key));
}

TEST(PbftMessages, CheckpointRoundTrip) {
  Checkpoint cp;
  cp.seq = 100;
  cp.state_digest.bytes[5] = 7;
  cp.sender = 3;
  const auto decoded = Checkpoint::deserialize(cp.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 100u);
  EXPECT_EQ(decoded->state_digest, cp.state_digest);
}

TEST(PbftMessages, PreparedProofRoundTrip) {
  PreparedProof proof;
  proof.pre_prepare.src = 1;
  proof.pre_prepare.type = tag(MsgType::PrePrepare);
  proof.pre_prepare.payload = to_bytes("pp");
  net::Envelope prep;
  prep.type = tag(MsgType::Prepare);
  prep.payload = to_bytes("p1");
  proof.prepares.push_back(prep);
  prep.payload = to_bytes("p2");
  proof.prepares.push_back(prep);

  const auto decoded = PreparedProof::deserialize(proof.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->prepares.size(), 2u);
  EXPECT_EQ(decoded->pre_prepare.payload, to_bytes("pp"));
}

TEST(PbftMessages, ViewChangeRoundTrip) {
  ViewChange vc;
  vc.new_view = 4;
  vc.last_stable = 50;
  net::Envelope cp;
  cp.type = tag(MsgType::Checkpoint);
  cp.payload = to_bytes("cp");
  vc.checkpoint_proof.push_back(cp);
  PreparedProof proof;
  proof.pre_prepare.payload = to_bytes("pp");
  vc.prepared.push_back(proof);
  vc.sender = 2;

  const auto decoded = ViewChange::deserialize(vc.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->new_view, 4u);
  EXPECT_EQ(decoded->last_stable, 50u);
  EXPECT_EQ(decoded->checkpoint_proof.size(), 1u);
  EXPECT_EQ(decoded->prepared.size(), 1u);
  EXPECT_EQ(decoded->sender, 2u);
}

TEST(PbftMessages, NewViewRoundTrip) {
  NewView nv;
  nv.new_view = 4;
  net::Envelope vce;
  vce.payload = to_bytes("vc");
  nv.view_changes.push_back(vce);
  net::Envelope ppe;
  ppe.payload = to_bytes("pp");
  nv.pre_prepares.push_back(ppe);
  nv.sender = 0;

  const auto decoded = NewView::deserialize(nv.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->view_changes.size(), 1u);
  EXPECT_EQ(decoded->pre_prepares.size(), 1u);
}

TEST(PbftMessages, StateTransferRoundTrip) {
  StateRequest sr;
  sr.seq = 100;
  sr.sender = 1;
  const auto dsr = StateRequest::deserialize(sr.serialize());
  ASSERT_TRUE(dsr.has_value());
  EXPECT_EQ(dsr->seq, 100u);

  StateResponse resp;
  resp.seq = 100;
  resp.snapshot = to_bytes("snapshot");
  resp.sender = 2;
  const auto dresp = StateResponse::deserialize(resp.serialize());
  ASSERT_TRUE(dresp.has_value());
  EXPECT_EQ(dresp->snapshot, to_bytes("snapshot"));
}

TEST(PbftMessages, MalformedInputsRejected) {
  EXPECT_FALSE(Request::deserialize(to_bytes("x")).has_value());
  EXPECT_FALSE(PrePrepare::deserialize({}).has_value());
  EXPECT_FALSE(ViewChange::deserialize(to_bytes("junk")).has_value());
  EXPECT_FALSE(NewView::deserialize(to_bytes("{}")).has_value());
}

namespace {

/// A deep certificate-carrying structure exercising every nested parse
/// layer: an Envelope wrapping a ViewChange, whose checkpoint proof and
/// PreparedProofs embed further complete envelopes (the PR 3
/// Reader::view/skip/position zero-copy paths).
[[nodiscard]] net::Envelope nested_proof_envelope() {
  const auto make_env = [](MsgType type, Bytes payload) {
    net::Envelope env;
    env.src = principal::pbft_replica(2);
    env.dst = principal::pbft_replica(1);
    env.type = tag(type);
    env.payload = std::move(payload);
    env.signature = SharedBytes(Bytes(32, 0x5c));
    return env;
  };

  ViewChange vc;
  vc.new_view = 3;
  vc.last_stable = 10;
  Checkpoint cp;
  cp.seq = 10;
  cp.state_digest.bytes.fill(0xcd);
  for (ReplicaId r = 0; r < 3; ++r) {
    cp.sender = r;
    vc.checkpoint_proof.push_back(
        make_env(MsgType::Checkpoint, cp.serialize()));
  }
  PrePrepare pp;
  pp.view = 2;
  pp.seq = 11;
  pp.batch = RequestBatch{{sample_request()}}.serialize();
  pp.batch_digest.bytes.fill(0xab);
  pp.sender = 2;
  PreparedProof proof;
  proof.pre_prepare = make_env(MsgType::PrePrepare, pp.serialize());
  Prepare prep;
  prep.view = 2;
  prep.seq = 11;
  prep.batch_digest = pp.batch_digest;
  for (ReplicaId r = 0; r < 2; ++r) {
    prep.sender = r;
    proof.prepares.push_back(make_env(MsgType::Prepare, prep.serialize()));
  }
  vc.prepared.push_back(std::move(proof));
  vc.sender = 1;
  return make_env(MsgType::ViewChange, vc.serialize());
}

}  // namespace

// Exhaustive truncation hardening: for EVERY strict prefix of the wire
// image of an envelope embedding a proof embedding envelopes, parsing must
// fail cleanly — no out-of-bounds read (the ASan job enforces that), no
// silent success on a shorter input. Only the full image parses.
TEST(PbftMessages, NestedProofTruncatedAtEveryByteIsRejected) {
  const net::Envelope env = nested_proof_envelope();
  const Bytes wire = env.wire().to_bytes();
  ASSERT_GT(wire.size(), 100u);

  for (std::size_t len = 0; len < wire.size(); ++len) {
    const ByteView prefix{wire.data(), len};
    EXPECT_FALSE(net::Envelope::deserialize(prefix).has_value())
        << "prefix of " << len << " bytes parsed as a complete envelope";
  }
  const auto full = net::Envelope::deserialize(wire);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(ViewChange::deserialize(full->payload).has_value());

  // Same property one layer down: every strict prefix of the ViewChange
  // payload (the layer whose parse walks nested envelope views) fails.
  const Bytes payload = full->payload.to_bytes();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const ByteView prefix{payload.data(), len};
    EXPECT_FALSE(ViewChange::deserialize(prefix).has_value())
        << "ViewChange prefix of " << len << " bytes parsed";
  }

  // And for the PreparedProof layer inside it.
  const auto vc = ViewChange::deserialize(payload);
  ASSERT_TRUE(vc.has_value());
  const Bytes proof_bytes = vc->prepared.at(0).serialize();
  for (std::size_t len = 0; len < proof_bytes.size(); ++len) {
    const ByteView prefix{proof_bytes.data(), len};
    EXPECT_FALSE(PreparedProof::deserialize(prefix).has_value())
        << "PreparedProof prefix of " << len << " bytes parsed";
  }
}

// Hostile counts must not command allocations the input cannot back: a
// tiny message claiming millions of entries is rejected before reserve.
TEST(PbftMessages, ImplausibleCountsRejectedBeforeAllocation) {
  {
    Writer w;
    w.u32(99'999);  // batch "contains" 99,999 requests... in 4 more bytes
    w.u32(0);
    EXPECT_FALSE(RequestBatch::deserialize(std::move(w).take()).has_value());
  }
  {
    Writer w;
    w.u64(1);    // new_view
    w.u64(0);    // last_stable
    w.u32(900);  // 900 checkpoint envelopes claimed, no bytes behind them
    EXPECT_FALSE(ViewChange::deserialize(std::move(w).take()).has_value());
  }
}

// ------------------------------------------------- wire bytes and MAC bytes

[[nodiscard]] Bytes filled(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + 31 * i);
  }
  return b;
}

[[nodiscard]] RequestBatch mixed_batch() {
  RequestBatch batch;
  for (std::size_t i = 0; i < 6; ++i) {
    Request req;
    req.client = 1000 + static_cast<ClientId>(i);
    req.timestamp = 1ULL << (10 * i);
    req.payload = filled(i == 0 ? 0 : 37 * i, static_cast<std::uint8_t>(i));
    req.auth = i == 1 ? Bytes{} : filled(32, static_cast<std::uint8_t>(i + 9));
    batch.requests.push_back(std::move(req));
  }
  return batch;
}

// The in-place batch encoder must produce the nested form byte for byte:
// a u32 count, then each Request::serialize() length-prefixed.
TEST(PbftMessages, BatchSerializeMatchesNestedForm) {
  for (const RequestBatch& batch : {RequestBatch{}, mixed_batch()}) {
    Writer nested;
    nested.u32(static_cast<std::uint32_t>(batch.requests.size()));
    for (const auto& req : batch.requests) nested.bytes(req.serialize());
    const Bytes wire = batch.serialize();
    EXPECT_EQ(wire, nested.data());

    const auto decoded = RequestBatch::deserialize(wire);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->requests.size(), batch.requests.size());
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      EXPECT_EQ(decoded->requests[i].client, batch.requests[i].client);
      EXPECT_EQ(decoded->requests[i].timestamp, batch.requests[i].timestamp);
      EXPECT_EQ(decoded->requests[i].payload, batch.requests[i].payload);
      EXPECT_EQ(decoded->requests[i].auth, batch.requests[i].auth);
    }
    EXPECT_EQ(decoded->serialize(), wire);
  }
}

TEST(PbftMessages, BatchRejectsBadInnerLengthsAndCounts) {
  const RequestBatch batch = mixed_batch();
  const Bytes wire = batch.serialize();
  const std::uint32_t first_len =
      static_cast<std::uint32_t>(batch.requests[0].serialize().size());
  const auto with_u32_at = [&wire](std::size_t at, std::uint32_t v) {
    Bytes b = wire;
    for (int i = 0; i < 4; ++i) {
      b[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
    return b;
  };
  // Inner length one short: the request parses short of its fields.
  EXPECT_FALSE(RequestBatch::deserialize(with_u32_at(4, first_len - 1)));
  // Inner length one long: the request swallows its neighbour's prefix.
  EXPECT_FALSE(RequestBatch::deserialize(with_u32_at(4, first_len + 1)));
  // Inner length past the end of the input.
  EXPECT_FALSE(RequestBatch::deserialize(
      with_u32_at(4, static_cast<std::uint32_t>(wire.size()))));
  // A count past the entries present, and one short of them.
  const auto n = static_cast<std::uint32_t>(batch.requests.size());
  EXPECT_FALSE(RequestBatch::deserialize(with_u32_at(0, n + 1)));
  EXPECT_FALSE(RequestBatch::deserialize(with_u32_at(0, n - 1)));
  // Every strict prefix is rejected.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(RequestBatch::deserialize(ByteView{wire.data(), len}))
        << "prefix of " << len << " bytes parsed";
  }
}

// Each message MAC equals HMAC-SHA256 over the reference auth bytes, built
// here field by field with a Writer. Body sizes 0-200 put the end of the
// input on both sides of the 55/56/64-byte SHA-256 block edges.
TEST(PbftMessages, MacsMatchReferenceAuthBytes) {
  const Bytes raw_key = to_bytes("client-auth-key-0123456789abcdef");
  const crypto::HmacKey key = crypto::hmac_key(raw_key);
  for (std::size_t n = 0; n <= 200; ++n) {
    const Bytes body = filled(n, static_cast<std::uint8_t>(n));

    Request req;
    req.client = 0x01020304;
    req.timestamp = 0x1122334455667788ULL + n;
    req.payload = body;
    Writer rw;
    rw.u32(req.client);
    rw.u64(req.timestamp);
    rw.bytes(req.payload);
    EXPECT_EQ(rw.data(), req.auth_input());
    EXPECT_EQ(req.mac(key), crypto::hmac_sha256(raw_key, rw.data()))
        << "request body " << n;

    Reply reply;
    reply.view = 3 + n;
    reply.timestamp = 0xa1a2a3a4a5a6a7a8ULL;
    reply.client = 77;
    reply.sender = 2;
    reply.result = body;
    Writer pw;
    pw.u64(reply.view);
    pw.u64(reply.timestamp);
    pw.u32(reply.client);
    pw.u32(reply.sender);
    pw.bytes(reply.result);
    EXPECT_EQ(reply.mac(key), crypto::hmac_sha256(raw_key, pw.data()))
        << "reply body " << n;

    for (const bool has_result : {false, true}) {
      ReadReply rr;
      rr.timestamp = 9 + n;
      rr.client = 78;
      rr.sender = 3;
      rr.exec_seq = 0x0102030405060708ULL;
      rr.result_digest.bytes.fill(static_cast<std::uint8_t>(n));
      rr.has_result = has_result;
      rr.result = body;
      Writer ww;
      ww.u64(rr.timestamp);
      ww.u32(rr.client);
      ww.u32(rr.sender);
      ww.u64(rr.exec_seq);
      ww.raw(rr.result_digest.view());
      ww.boolean(rr.has_result);
      ww.bytes(rr.result);
      EXPECT_EQ(rr.mac(key), crypto::hmac_sha256(raw_key, ww.data()))
          << "read reply body " << n << " has_result " << has_result;
    }
  }
}

TEST(PbftMessages, MacValidChecksAuthAndEveryField) {
  const crypto::HmacKey key = crypto::hmac_key(to_bytes("k"));
  Request req = sample_request();
  const Digest mac = req.mac(key);
  req.auth = Bytes(mac.bytes.begin(), mac.bytes.end());
  EXPECT_TRUE(req.mac_valid(key));
  EXPECT_FALSE(req.mac_valid(crypto::hmac_key(to_bytes("k2"))));
  Request tampered = req;
  tampered.payload.back() ^= 1;
  EXPECT_FALSE(tampered.mac_valid(key));
  tampered = req;
  ++tampered.timestamp;
  EXPECT_FALSE(tampered.mac_valid(key));
  tampered = req;
  tampered.auth.pop_back();
  EXPECT_FALSE(tampered.mac_valid(key));

  Reply reply;
  reply.client = 5;
  reply.result = to_bytes("r");
  const Digest rmac = reply.mac(key);
  reply.auth = Bytes(rmac.bytes.begin(), rmac.bytes.end());
  EXPECT_TRUE(reply.mac_valid(key));
  ++reply.sender;
  EXPECT_FALSE(reply.mac_valid(key));

  ReadReply rr;
  rr.client = 5;
  const Digest rrmac = rr.mac(key);
  rr.auth = Bytes(rrmac.bytes.begin(), rrmac.bytes.end());
  EXPECT_TRUE(rr.mac_valid(key));
  rr.has_result = true;
  EXPECT_FALSE(rr.mac_valid(key));
}

// The zero-copy views alias the parsed bytes, MAC the same bytes as the
// owning messages, and accept only a whole message.
TEST(PbftMessages, RequestViewsMatchTheOwningParsers) {
  const crypto::HmacKey key = crypto::hmac_key(to_bytes("view-key"));
  const RequestBatch batch = mixed_batch();
  const Bytes wire = batch.serialize();
  const auto views = parse_request_batch(wire);
  ASSERT_TRUE(views.has_value());
  ASSERT_EQ(views->size(), batch.requests.size());
  for (std::size_t i = 0; i < views->size(); ++i) {
    const RequestView& v = (*views)[i];
    const Request& req = batch.requests[i];
    EXPECT_EQ(v.client, req.client);
    EXPECT_EQ(v.timestamp, req.timestamp);
    EXPECT_TRUE(std::ranges::equal(v.payload, req.payload));
    EXPECT_TRUE(std::ranges::equal(v.auth, req.auth));
    EXPECT_TRUE(std::ranges::equal(v.bytes, req.serialize()));
    EXPECT_GE(v.bytes.data(), wire.data());  // a view into `wire`
    EXPECT_LE(v.bytes.data() + v.bytes.size(), wire.data() + wire.size());
    EXPECT_EQ(v.mac(key), req.mac(key));
  }
  Request signed_req = sample_request();
  const Digest mac = signed_req.mac(key);
  signed_req.auth = Bytes(mac.bytes.begin(), mac.bytes.end());
  const Bytes one = signed_req.serialize();
  ASSERT_TRUE(RequestView::parse(one).has_value());
  EXPECT_TRUE(RequestView::parse(one)->mac_valid(key));
  EXPECT_FALSE(RequestView::parse(one)->mac_valid(
      crypto::hmac_key(to_bytes("other"))));

  // Every strict prefix and a trailing byte are rejected, by the views
  // and by the owning parsers built on them.
  Bytes longer = one;
  longer.push_back(0);
  for (std::size_t len = 0; len <= longer.size(); ++len) {
    const ByteView cut{longer.data(), len};
    EXPECT_EQ(RequestView::parse(cut).has_value(), len == one.size()) << len;
    EXPECT_EQ(Request::deserialize(cut).has_value(), len == one.size())
        << len;
  }
  Bytes batch_longer = wire;
  batch_longer.push_back(0);
  for (std::size_t len = 0; len <= batch_longer.size(); ++len) {
    const ByteView cut{batch_longer.data(), len};
    EXPECT_EQ(parse_request_batch(cut).has_value(), len == wire.size())
        << len;
    EXPECT_EQ(RequestBatch::deserialize(cut).has_value(), len == wire.size())
        << len;
  }
  const auto empty = parse_request_batch(RequestBatch{}.serialize());
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(PbftMessages, ReplyViewMatchesTheOwningParser) {
  const crypto::HmacKey key = crypto::hmac_key(to_bytes("reply-key"));
  for (const std::size_t n : {0u, 7u, 40u, 200u}) {
    Reply reply;
    reply.view = 3;
    reply.timestamp = 99;
    reply.client = 1234;
    reply.sender = 2;
    reply.result = filled(n, static_cast<std::uint8_t>(n));
    const Digest mac = reply.mac(key);
    reply.auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    const Bytes wire = reply.serialize();
    const auto v = ReplyView::parse(wire);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->view, reply.view);
    EXPECT_EQ(v->timestamp, reply.timestamp);
    EXPECT_EQ(v->client, reply.client);
    EXPECT_EQ(v->sender, reply.sender);
    EXPECT_TRUE(std::ranges::equal(v->result, reply.result));
    EXPECT_TRUE(std::ranges::equal(v->auth, reply.auth));
    EXPECT_EQ(v->mac(key), mac);
    EXPECT_TRUE(v->mac_valid(key));
    EXPECT_FALSE(v->mac_valid(crypto::hmac_key(to_bytes("other"))));

    Bytes longer = wire;
    longer.push_back(0);
    for (std::size_t len = 0; len <= longer.size(); ++len) {
      const ByteView cut{longer.data(), len};
      EXPECT_EQ(ReplyView::parse(cut).has_value(), len == wire.size())
          << len;
      EXPECT_EQ(Reply::deserialize(cut).has_value(), len == wire.size())
          << len;
    }
  }
}

// A message built in one buffer with the layout writers (header, body in
// place, MAC) is byte for byte what serialize() writes from the fields.
TEST(PbftMessages, LayoutWritersMatchSerialize) {
  const crypto::HmacKey key = crypto::hmac_key(to_bytes("layout-key"));
  Request req = sample_request();
  const Digest req_mac = req.mac(key);
  req.auth = Bytes(req_mac.bytes.begin(), req_mac.bytes.end());
  Writer rw(kRequestHeaderBytes + req.payload.size() + kMacFieldBytes);
  write_request_header(rw, req.client, req.timestamp, req.payload.size());
  rw.raw(req.payload);
  append_mac(rw, key);
  EXPECT_EQ(rw.data(), req.serialize());
  EXPECT_EQ(rw.data().capacity(), rw.size());  // sized once

  Reply reply;
  reply.view = 4;
  reply.timestamp = 11;
  reply.client = 77;
  reply.sender = 3;
  reply.result = filled(40, 9);
  const Digest reply_mac = reply.mac(key);
  reply.auth = Bytes(reply_mac.bytes.begin(), reply_mac.bytes.end());
  Writer pw(kReplyHeaderBytes + reply.result.size() + kMacFieldBytes);
  write_reply_header(pw, reply.view, reply.timestamp, reply.client,
                     reply.sender, reply.result.size());
  pw.raw(reply.result);
  append_mac(pw, key);
  EXPECT_EQ(pw.data(), reply.serialize());
  EXPECT_EQ(pw.data().capacity(), pw.size());

  const RequestBatch batch = mixed_batch();
  std::vector<Bytes> serialized;
  for (const auto& r : batch.requests) serialized.push_back(r.serialize());
  EXPECT_EQ(concat_request_batch(serialized), batch.serialize());
  EXPECT_EQ(concat_request_batch(std::vector<Bytes>{}),
            RequestBatch{}.serialize());
}

}  // namespace
}  // namespace sbft::pbft
