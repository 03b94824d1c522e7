// End-to-end SplitBFT cluster tests on the deterministic simulator:
// session establishment, confidential execution, checkpoints, view changes,
// crash tolerance, state transfer.
#include <gtest/gtest.h>

#include "apps/counter_app.hpp"
#include "apps/kv_store.hpp"
#include "apps/ledger.hpp"
#include "common/serde.hpp"
#include "runtime/splitbft_cluster.hpp"

namespace sbft::runtime {
namespace {

using apps::CounterApp;
using apps::KvStore;

[[nodiscard]] SplitClusterOptions small_config(std::uint64_t seed) {
  SplitClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.f = 1;
  options.config.checkpoint_interval = 10;
  options.config.watermark_window = 40;
  options.config.batch_max = 1;
  return options;
}

[[nodiscard]] splitbft::ExecAppFactory counter_factory() {
  return splitbft::plain_app([] { return std::make_unique<CounterApp>(); });
}

[[nodiscard]] std::uint64_t counter_value(const Bytes& reply) {
  Reader r(reply);
  const std::uint64_t v = r.u64();
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.done());
  return v;
}

TEST(SplitbftIntegration, SessionEstablishment) {
  SplitbftCluster cluster(small_config(1), counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());
  EXPECT_EQ(cluster.client(kFirstClientId).client().ack_count(), 4u);
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_TRUE(cluster.replica(r).exec().has_session(kFirstClientId));
  }
}

TEST(SplitbftIntegration, SingleRequestExecutesEverywhere) {
  SplitbftCluster cluster(small_config(2), counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  const auto result =
      cluster.execute(kFirstClientId, CounterApp::encode_add(7));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(counter_value(*result), 7u);

  cluster.harness().run_for(1'000'000);
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.replica(r).exec().last_executed(), 1u) << "r" << r;
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SplitbftIntegration, SequentialRequestsLinearize) {
  SplitbftCluster cluster(small_config(3), counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  std::uint64_t expected = 0;
  for (int i = 1; i <= 15; ++i) {
    expected += static_cast<std::uint64_t>(i);
    const auto result = cluster.execute(
        kFirstClientId, CounterApp::encode_add(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(result.has_value()) << "request " << i;
    EXPECT_EQ(counter_value(*result), expected);
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SplitbftIntegration, KvStoreEndToEnd) {
  SplitbftCluster cluster(
      small_config(4),
      splitbft::plain_app([] { return std::make_unique<KvStore>(); }));
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  auto put = cluster.execute(
      kFirstClientId, apps::kv::encode_put(to_bytes("key"), to_bytes("val")));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(apps::kv::decode_reply(*put)->status, apps::KvStatus::Ok);

  auto get =
      cluster.execute(kFirstClientId, apps::kv::encode_get(to_bytes("key")));
  ASSERT_TRUE(get.has_value());
  auto reply = apps::kv::decode_reply(*get);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->value, to_bytes("val"));
}

TEST(SplitbftIntegration, MultipleClients) {
  auto options = small_config(5);
  options.config.batch_max = 4;
  SplitbftCluster cluster(options, counter_factory());
  for (ClientId c = kFirstClientId; c < kFirstClientId + 4; ++c) {
    cluster.add_client(c);
  }
  ASSERT_TRUE(cluster.setup_sessions());

  for (ClientId c = kFirstClientId; c < kFirstClientId + 4; ++c) {
    cluster.harness().inject(cluster.client(c).client().submit(
        CounterApp::encode_add(1), cluster.harness().now()));
  }
  const bool done = cluster.harness().run_until(
      [&] {
        for (ClientId c = kFirstClientId; c < kFirstClientId + 4; ++c) {
          if (cluster.client(c).results().empty()) return false;
        }
        return true;
      },
      30'000'000);
  EXPECT_TRUE(done);
  EXPECT_TRUE(cluster.check_agreement());

  cluster.harness().run_for(2'000'000);
  const auto& app =
      dynamic_cast<const CounterApp&>(cluster.replica(0).exec().app());
  EXPECT_EQ(app.value(), 4u);
  // Every broker drained: each Reply retired its request, so no suspicion
  // timer or batch entry is left behind to eat admission headroom.
  for (ReplicaId r = 0; r < options.config.n; ++r) {
    EXPECT_EQ(cluster.replica(r).broker().outstanding_count(), 0u) << r;
    EXPECT_EQ(cluster.replica(r).broker().pending_batch_size(), 0u) << r;
  }
}

TEST(SplitbftIntegration, ConfidentialityFromEnvironment) {
  // The secret payload must never appear in any byte the untrusted
  // environment (network + brokers) sees.
  const std::string secret = "TOP-SECRET-PAYLOAD-0xDEADBEEF";
  std::vector<Bytes> observed;

  auto options = small_config(6);
  SplitbftCluster cluster(
      options,
      splitbft::plain_app([] { return std::make_unique<KvStore>(); }));
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  // Record every envelope the network carries from now on.
  cluster.harness().network().set_interceptor(
      [&observed](const net::Envelope& env)
          -> std::optional<
              std::vector<std::pair<net::Envelope, Micros>>> {
        observed.push_back(env.wire().to_bytes());
        return std::nullopt;  // deliver normally
      });

  const auto result = cluster.execute(
      kFirstClientId,
      apps::kv::encode_put(to_bytes("account"), to_bytes(secret)));
  ASSERT_TRUE(result.has_value());

  ASSERT_FALSE(observed.empty());
  for (const auto& bytes : observed) {
    const std::string haystack(bytes.begin(), bytes.end());
    EXPECT_EQ(haystack.find(secret), std::string::npos)
        << "confidential payload leaked into the untrusted environment";
  }

  // ...and the client still got the right data back.
  const auto get = cluster.execute(kFirstClientId,
                                   apps::kv::encode_get(to_bytes("account")));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(apps::kv::decode_reply(*get)->value, to_bytes(secret));
}

TEST(SplitbftIntegration, CheckpointsAdvanceAndGc) {
  auto options = small_config(7);
  options.config.checkpoint_interval = 5;
  SplitbftCluster cluster(options, counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value());
  }
  cluster.harness().run_for(2'000'000);
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_GE(cluster.replica(r).exec().last_stable(), 5u) << "r" << r;
    EXPECT_GE(cluster.replica(r).prep().last_stable(), 5u) << "r" << r;
    EXPECT_GE(cluster.replica(r).conf().last_stable(), 5u) << "r" << r;
  }
}

TEST(SplitbftIntegration, ToleratesCrashedBackup) {
  SplitbftCluster cluster(small_config(8), counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());
  cluster.crash_replica(2);

  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value())
        << "request " << i;
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SplitbftIntegration, ViewChangeOnCrashedPrimary) {
  SplitbftCluster cluster(small_config(9), counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  ASSERT_TRUE(
      cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value());
  cluster.crash_replica(0);  // primary of view 0

  const auto result =
      cluster.execute(kFirstClientId, CounterApp::encode_add(2), 60'000'000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(counter_value(*result), 3u);
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_GE(cluster.replica(r).conf().view(), 1u) << "r" << r;
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SplitbftIntegration, RecoveredReplicaCatchesUpViaStateTransfer) {
  auto options = small_config(10);
  options.config.checkpoint_interval = 5;
  SplitbftCluster cluster(options, counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  cluster.crash_replica(3);
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(
        cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value());
  }
  cluster.restore_replica(3);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value());
  }
  cluster.harness().run_for(5'000'000);
  EXPECT_GE(cluster.replica(3).exec().last_executed(), 10u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SplitbftIntegration, SurvivesLossyNetwork) {
  auto options = small_config(11);
  options.link_params.drop_prob = 0.04;
  SplitbftCluster cluster(options, counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions(60'000'000));

  std::uint64_t expected = 0;
  for (int i = 1; i <= 8; ++i) {
    expected += 1;
    const auto result =
        cluster.execute(kFirstClientId, CounterApp::encode_add(1), 60'000'000);
    ASSERT_TRUE(result.has_value()) << "request " << i;
    EXPECT_EQ(counter_value(*result), expected);
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SplitbftIntegration, LedgerAppPersistsEncryptedBlocks) {
  auto options = small_config(12);
  options.config.batch_max = 1;
  SplitbftCluster cluster(
      options, [](splitbft::PersistHook persist) {
        return std::make_unique<apps::Ledger>(
            2, [persist](ByteView block) { persist(block); });
      });
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        cluster.execute(kFirstClientId, to_bytes("tx-" + std::to_string(i)))
            .has_value());
  }
  cluster.harness().run_for(2'000'000);

  // Two blocks persisted per replica, ciphertext only.
  for (ReplicaId r = 0; r < 4; ++r) {
    auto& store = cluster.replica(r).block_store();
    EXPECT_EQ(store.size(), 2u) << "r" << r;
    const auto block0 = store.read(0);
    ASSERT_TRUE(block0.has_value());
    const std::string haystack(block0->begin(), block0->end());
    EXPECT_EQ(haystack.find("tx-0"), std::string::npos)
        << "ledger block stored in plaintext";
  }
}

class SplitSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitSeedSweep, AgreementHoldsUnderRandomSchedules) {
  auto options = small_config(GetParam());
  options.link_params.drop_prob = 0.02;
  options.config.batch_max = 3;
  SplitbftCluster cluster(options, counter_factory());
  cluster.add_client(kFirstClientId);
  cluster.add_client(kFirstClientId + 1);
  ASSERT_TRUE(cluster.setup_sessions(60'000'000));

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster
                    .execute(kFirstClientId + (i % 2),
                             CounterApp::encode_add(1), 60'000'000)
                    .has_value());
  }
  EXPECT_TRUE(cluster.check_agreement());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitSeedSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(SplitbftIntegration, BrokerIngressFilterDropsForgedEnvelopes) {
  SplitbftCluster cluster(small_config(31), counter_factory());
  cluster.add_client(kFirstClientId);
  ASSERT_TRUE(cluster.setup_sessions());
  ASSERT_TRUE(
      cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value());

  // Opt in to the DoS defense on replica 0's (untrusted) broker.
  auto& broker = cluster.replica(0).broker();
  EXPECT_EQ(broker.ingress_cache(), nullptr);  // off by default
  broker.enable_ingress_filter(cluster.keyring().verifier());
  ASSERT_NE(broker.ingress_cache(), nullptr);

  // Forge a Prepare claiming to come from replica 1's Preparation enclave,
  // addressed at replica 0's Confirmation enclave, with a garbage
  // signature. The broker pre-verifies on public material and drops it
  // before paying an ecall.
  const net::VerifyStats before = broker.ingress_cache()->stats();

  pbft::Prepare prep;
  prep.view = 0;
  prep.seq = 999;
  prep.sender = 1;
  net::Envelope forged;
  forged.src = principal::enclave({1, Compartment::Preparation});
  forged.dst = principal::enclave({0, Compartment::Confirmation});
  forged.type = pbft::tag(pbft::MsgType::Prepare);
  forged.payload = prep.serialize();
  forged.signature = Bytes(64, 0x5a);
  cluster.harness().inject({forged});
  cluster.harness().run_for(100'000);

  const net::VerifyStats after = broker.ingress_cache()->stats();
  EXPECT_EQ(after.failures, before.failures + 1);
  // Honest traffic still flows and agreement is intact.
  ASSERT_TRUE(
      cluster.execute(kFirstClientId, CounterApp::encode_add(1)).has_value());
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::runtime
