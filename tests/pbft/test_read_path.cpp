// Read fast-path correctness (PBFT): read-your-writes, single-round
// service without sequence numbers, ordered fallback on vote mismatch and
// timeout, identical application state under fast and ordered read
// configurations, and the bounded per-client reply cache.
#include <gtest/gtest.h>

#include "apps/kv_store.hpp"
#include "common/serde.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "runtime/pbft_cluster.hpp"

namespace sbft::runtime {
namespace {

[[nodiscard]] apps::AppFactory kv_factory() {
  return [] { return std::make_unique<apps::KvStore>(); };
}

[[nodiscard]] Bytes kv_ok(ByteView value) {
  // encode_reply(Ok, value) is private to the app; rebuild the wire form.
  Writer w;
  w.u8(static_cast<std::uint8_t>(apps::KvStatus::Ok));
  w.bytes(value);
  return std::move(w).take();
}

TEST(ReadPath, ReadYourWritesAfterCommittedPut) {
  PbftClusterOptions options;
  options.seed = 91;
  options.config.read_path = true;
  PbftCluster cluster(options, kv_factory());
  cluster.add_client(kFirstClientId);

  ASSERT_TRUE(cluster
                  .execute(kFirstClientId,
                           apps::kv::encode_put(to_bytes("k"), to_bytes("v1")))
                  .has_value());
  // Quiesce so every replica has executed the PUT — the read quorum then
  // deterministically reflects it.
  cluster.harness().run_for(1'000'000);

  const SeqNum seq_before = cluster.replica(0).last_executed();
  const auto got =
      cluster.execute_read(kFirstClientId, apps::kv::encode_get(to_bytes("k")));
  ASSERT_TRUE(got.has_value());
  const auto reply = apps::kv::decode_reply(*got);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, apps::KvStatus::Ok);
  EXPECT_EQ(reply->value, to_bytes("v1"));

  // Single round: no fallback, and no sequence number was consumed.
  auto& client = cluster.client(kFirstClientId).client();
  EXPECT_EQ(client.fast_reads(), 1u);
  EXPECT_EQ(client.read_fallbacks(), 0u);
  cluster.harness().run_for(1'000'000);
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.replica(r).last_executed(), seq_before) << "r" << r;
    EXPECT_EQ(cluster.replica(r).reads_served(), 1u) << "r" << r;
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(ReadPath, DisabledConfigServesReadsThroughOrdering) {
  PbftClusterOptions options;
  options.seed = 92;
  options.config.read_path = false;
  PbftCluster cluster(options, kv_factory());
  cluster.add_client(kFirstClientId);

  ASSERT_TRUE(cluster
                  .execute(kFirstClientId,
                           apps::kv::encode_put(to_bytes("k"), to_bytes("v")))
                  .has_value());
  const auto got =
      cluster.execute_read(kFirstClientId, apps::kv::encode_get(to_bytes("k")));
  ASSERT_TRUE(got.has_value());
  const auto reply = apps::kv::decode_reply(*got);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->value, to_bytes("v"));
  auto& client = cluster.client(kFirstClientId).client();
  EXPECT_EQ(client.fast_reads(), 0u);  // went through the ordered path
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.replica(r).reads_served(), 0u);
  }
}

// ------------------------------------------------- client fallback logic

class ReadFallback : public ::testing::Test {
 protected:
  ReadFallback()
      : directory_(0x5ec7e7), client_(config(), kFirstClientId, directory_) {}

  [[nodiscard]] static pbft::Config config() {
    pbft::Config c;
    c.read_path = true;
    return c;
  }

  /// A validly-MACed ReadReply from `sender` voting (digest(result), seq).
  [[nodiscard]] net::Envelope read_reply(ReplicaId sender, SeqNum exec_seq,
                                         const Bytes& result,
                                         bool include_result) const {
    pbft::ReadReply rr;
    rr.timestamp = client_.current_timestamp();
    rr.client = kFirstClientId;
    rr.sender = sender;
    rr.exec_seq = exec_seq;
    rr.result_digest = crypto::sha256(result);
    if (include_result) {
      rr.has_result = true;
      rr.result = result;
    }
    const Digest mac = rr.mac(directory_.hmac_key(kFirstClientId));
    rr.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

    net::Envelope env;
    env.src = principal::pbft_replica(sender);
    env.dst = principal::client(kFirstClientId);
    env.type = pbft::tag(pbft::MsgType::ReadReply);
    env.payload = rr.serialize();
    return env;
  }

  pbft::ClientDirectory directory_;
  pbft::Client client_;
};

TEST_F(ReadFallback, AcceptsQuorumWithDesignatedValue) {
  auto sent = client_.submit(apps::kv::encode_get(to_bytes("k")), 0, true);
  ASSERT_EQ(sent.size(), 4u);
  for (const auto& env : sent) {
    EXPECT_EQ(env.type, pbft::tag(pbft::MsgType::ReadRequest));
  }
  // ts=1 -> designated responder is (1000 + 1) % 4 = 1.
  const Bytes result = to_bytes("value");
  std::vector<net::Envelope> out;
  EXPECT_FALSE(client_.on_reply(read_reply(0, 7, result, false), 0, out));
  EXPECT_FALSE(client_.on_reply(read_reply(1, 7, result, true), 0, out));
  const auto got = client_.on_reply(read_reply(2, 7, result, false), 0, out);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, result);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(client_.fast_reads(), 1u);
  EXPECT_FALSE(client_.in_flight());
}

TEST_F(ReadFallback, MismatchedVotesFallBackToOrderedPath) {
  (void)client_.submit(apps::kv::encode_get(to_bytes("k")), 0, true);
  // Concurrent writes: every replica answers from a different executed
  // state, so no (digest, seq) pair can reach 2f+1.
  const Bytes stale = to_bytes("old");
  const Bytes fresh = to_bytes("new");
  std::vector<net::Envelope> out;
  EXPECT_FALSE(client_.on_reply(read_reply(0, 5, stale, false), 0, out));
  EXPECT_FALSE(client_.on_reply(read_reply(1, 6, fresh, true), 0, out));
  EXPECT_FALSE(client_.on_reply(read_reply(2, 6, stale, false), 0, out));
  EXPECT_TRUE(out.empty());
  // The fourth (last) reply proves no quorum can form: the client
  // immediately re-broadcasts the identical request through ordering.
  EXPECT_FALSE(client_.on_reply(read_reply(3, 7, fresh, false), 0, out));
  ASSERT_EQ(out.size(), 4u);
  for (const auto& env : out) {
    EXPECT_EQ(env.type, pbft::tag(pbft::MsgType::Request));
  }
  EXPECT_EQ(client_.read_fallbacks(), 1u);
  EXPECT_TRUE(client_.in_flight());

  // The ordered path completes with 2f+1 matching Replies (the read-path
  // configuration strengthens the ordered quorum so fast reads can never
  // miss an acknowledged write).
  const auto make_ordered_reply = [&](ReplicaId sender) {
    pbft::Reply reply;
    reply.view = 0;
    reply.timestamp = client_.current_timestamp();
    reply.client = kFirstClientId;
    reply.sender = sender;
    reply.result = fresh;
    const Digest mac = reply.mac(directory_.hmac_key(kFirstClientId));
    reply.auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    net::Envelope env;
    env.src = principal::pbft_replica(sender);
    env.dst = principal::client(kFirstClientId);
    env.type = pbft::tag(pbft::MsgType::Reply);
    env.payload = reply.serialize();
    return env;
  };
  EXPECT_FALSE(client_.on_reply(make_ordered_reply(0), 0, out));
  EXPECT_FALSE(client_.on_reply(make_ordered_reply(1), 0, out));
  const auto got = client_.on_reply(make_ordered_reply(2), 0, out);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, fresh);
}

TEST_F(ReadFallback, TimeoutFallsBackToOrderedPath) {
  (void)client_.submit(apps::kv::encode_get(to_bytes("k")), 0, true);
  ASSERT_TRUE(client_.next_deadline().has_value());
  const Micros deadline = *client_.next_deadline();
  EXPECT_EQ(deadline, config().read_fallback_timeout_us);
  EXPECT_TRUE(client_.tick(deadline - 1).empty());
  const auto out = client_.tick(deadline);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& env : out) {
    EXPECT_EQ(env.type, pbft::tag(pbft::MsgType::Request));
  }
  EXPECT_EQ(client_.read_fallbacks(), 1u);
}

// ------------------------------------------------- state equivalence

struct SequenceResult {
  Digest app_digest;
  std::uint64_t fast_reads{0};
};

[[nodiscard]] SequenceResult run_sequence(bool read_path) {
  PbftClusterOptions options;
  options.seed = 93;
  options.config.read_path = read_path;
  options.config.batch_max = 4;
  PbftCluster cluster(options, kv_factory());
  cluster.add_client(kFirstClientId);

  for (int i = 0; i < 6; ++i) {
    const Bytes key = apps::kv::encode_key(static_cast<std::uint64_t>(i % 3));
    const Bytes value = to_bytes("value-" + std::to_string(i));
    EXPECT_TRUE(cluster
                    .execute(kFirstClientId,
                             apps::kv::encode_put(key, value))
                    .has_value());
    cluster.harness().run_for(500'000);
    const auto got =
        cluster.execute_read(kFirstClientId, apps::kv::encode_get(key));
    EXPECT_TRUE(got.has_value());
    if (got) {
      EXPECT_EQ(*got, kv_ok(value));
    }
  }
  cluster.harness().run_for(1'000'000);

  SequenceResult result;
  result.app_digest = cluster.replica(0).app().state_digest();
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_EQ(cluster.replica(r).app().state_digest(), result.app_digest)
        << "replica state diverged within one configuration";
  }
  result.fast_reads = cluster.client(kFirstClientId).client().fast_reads();
  EXPECT_TRUE(cluster.check_agreement());
  return result;
}

// Acceptance criterion: the fast-read and ordered-read configurations
// observe identical application state over the same operation sequence.
TEST(ReadPath, FastAndOrderedConfigurationsObserveIdenticalState) {
  const SequenceResult fast = run_sequence(/*read_path=*/true);
  const SequenceResult ordered = run_sequence(/*read_path=*/false);
  EXPECT_EQ(fast.app_digest, ordered.app_digest);
  EXPECT_GT(fast.fast_reads, 0u);   // the fast config really used the path
  EXPECT_EQ(ordered.fast_reads, 0u);
}

// ------------------------------------------------- client-record bounds

TEST(ClientRecordCache, BoundedByCapAndReadsDoNotGrowIt) {
  PbftClusterOptions options;
  options.seed = 94;
  options.config.read_path = true;
  options.config.client_record_cap = 8;
  options.config.batch_max = 1;
  PbftCluster cluster(options, kv_factory());

  constexpr std::uint32_t kClients = 16;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    cluster.add_client(kFirstClientId + i);
  }
  for (std::uint32_t i = 0; i < kClients; ++i) {
    const Bytes key = apps::kv::encode_key(i);
    ASSERT_TRUE(cluster
                    .execute(kFirstClientId + i,
                             apps::kv::encode_put(key, to_bytes("x")))
                    .has_value());
  }
  cluster.harness().run_for(1'000'000);
  for (ReplicaId r = 0; r < 4; ++r) {
    const auto fp = cluster.replica(r).gc_footprint();
    // Cached reply BODIES are bounded by the cap; the records themselves
    // survive as an at-most-once floor (old timestamps must never
    // re-execute).
    EXPECT_LE(fp.cached_replies, 8u) << "r" << r;
    EXPECT_GT(fp.cached_replies, 0u) << "r" << r;
    EXPECT_EQ(fp.client_records, kClients) << "r" << r;
  }
  // Checkpoint digests stayed aligned through the stripping.
  EXPECT_TRUE(cluster.check_agreement());

  // Fast reads must not create records or cached replies.
  const auto before = cluster.replica(0).gc_footprint();
  ASSERT_TRUE(cluster
                  .execute_read(kFirstClientId + kClients - 1,
                                apps::kv::encode_get(apps::kv::encode_key(0)))
                  .has_value());
  cluster.harness().run_for(500'000);
  const auto after = cluster.replica(0).gc_footprint();
  EXPECT_EQ(after.client_records, before.client_records);
  EXPECT_EQ(after.cached_replies, before.cached_replies);
}

}  // namespace
}  // namespace sbft::runtime
