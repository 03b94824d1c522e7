// Direct unit tests of individual compartment state machines (no cluster):
// input validation, quorum thresholds, GC, and the broker's routing rules.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/counter_app.hpp"
#include "crypto/sha256.hpp"
#include "pbft/client_directory.hpp"
#include "splitbft/broker.hpp"
#include "splitbft/conf_compartment.hpp"
#include "splitbft/enclave_adapter.hpp"
#include "splitbft/prep_compartment.hpp"

namespace sbft::splitbft {
namespace {

struct Fixture {
  pbft::Config config;
  crypto::KeyRing ring{crypto::Scheme::HmacShared, 9};
  std::shared_ptr<const crypto::Verifier> verifier;
  pbft::ClientDirectory clients{0x5ec7e7};

  Fixture() {
    config.n = 4;
    config.f = 1;
    config.batch_max = 8;
    for (ReplicaId r = 0; r < 4; ++r) {
      for (const Compartment c :
           {Compartment::Preparation, Compartment::Confirmation,
            Compartment::Execution}) {
        ring.add_principal(principal::enclave({r, c}));
      }
    }
    verifier = ring.verifier();
  }

  [[nodiscard]] std::shared_ptr<const crypto::Signer> signer(ReplicaId r,
                                                             Compartment c) {
    return ring.signer(principal::enclave({r, c}));
  }

  [[nodiscard]] pbft::Request make_request(ClientId client, Timestamp ts) {
    pbft::Request req;
    req.client = client;
    req.timestamp = ts;
    req.payload = to_bytes("op");
    const crypto::Key32 key = clients.auth_key(client);
    const Digest mac = crypto::hmac_sha256(ByteView{key.data(), key.size()},
                                           req.auth_input());
    req.auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    return req;
  }

  [[nodiscard]] net::Envelope local_batch(const pbft::RequestBatch& batch,
                                          ReplicaId r) {
    net::Envelope env;
    env.dst = principal::enclave({r, Compartment::Preparation});
    env.type = tag(LocalMsg::Batch);
    env.payload = batch.serialize();
    return env;
  }
};

TEST(PrepCompartmentUnit, PrimaryProposesAuthenticatedBatch) {
  Fixture fx;
  PrepCompartment prep(fx.config, 0, fx.signer(0, Compartment::Preparation),
                       fx.verifier, fx.clients, {});
  pbft::RequestBatch batch;
  batch.requests.push_back(fx.make_request(kFirstClientId, 1));

  const auto out = prep.deliver(fx.local_batch(batch, 0));
  // n-1 peer preps (full) + own conf (stripped) + own exec (full).
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(prep.next_seq(), 1u);

  // The copy for Confirmation must be stripped of the batch body.
  bool found_stripped = false;
  for (const auto& env : out) {
    if (env.dst == principal::enclave({0, Compartment::Confirmation})) {
      const auto pp = SplitPrePrepare::deserialize(env.payload);
      ASSERT_TRUE(pp.has_value());
      EXPECT_FALSE(pp->has_batch);
      found_stripped = true;
    }
  }
  EXPECT_TRUE(found_stripped);
}

// Pipelined batching: with pipeline_depth = D the Preparation enclave
// assigns at most checkpoint_interval + D sequence numbers past the stable
// checkpoint; authenticated overflow batches are DEFERRED (not dropped)
// and released when a checkpoint certificate advances the stable point.
TEST(PrepCompartmentUnit, PipelineDefersBatchesBeyondWindowAndReleasesOnCheckpoint) {
  Fixture fx;
  fx.config.checkpoint_interval = 2;
  fx.config.pipeline_depth = 1;  // window = interval + depth = 3 seqs
  PrepCompartment prep(fx.config, 0, fx.signer(0, Compartment::Preparation),
                       fx.verifier, fx.clients, {});

  for (Timestamp ts = 1; ts <= 5; ++ts) {
    pbft::RequestBatch batch;
    batch.requests.push_back(fx.make_request(kFirstClientId, ts));
    const auto out = prep.deliver(fx.local_batch(batch, 0));
    if (ts <= 3) {
      EXPECT_FALSE(out.empty()) << "batch " << ts << " fits the pipeline";
    } else {
      EXPECT_TRUE(out.empty()) << "batch " << ts << " must be deferred";
    }
  }
  EXPECT_EQ(prep.next_seq(), 3u);
  EXPECT_EQ(prep.deferred_batches(), 2u);

  // A 2f+1 checkpoint certificate at seq 2 advances the stable point;
  // both deferred batches now fit (window reaches seq 5) and are proposed.
  pbft::Checkpoint cp;
  cp.seq = 2;
  cp.state_digest = crypto::sha256(to_bytes("state@2"));
  std::vector<net::Envelope> released;
  for (ReplicaId r = 1; r <= 3; ++r) {
    cp.sender = r;
    net::Envelope env;
    env.src = principal::enclave({r, Compartment::Execution});
    env.dst = principal::enclave({0, Compartment::Preparation});
    env.type = pbft::tag(pbft::MsgType::Checkpoint);
    env.payload = cp.serialize();
    net::sign_envelope(env, *fx.signer(r, Compartment::Execution));
    auto out = prep.deliver(env);
    released.insert(released.end(), out.begin(), out.end());
  }
  EXPECT_EQ(prep.last_stable(), 2u);
  EXPECT_EQ(prep.deferred_batches(), 0u);
  EXPECT_EQ(prep.next_seq(), 5u);
  // Two proposals, 5 envelopes each (n-1 peers + own conf + own exec).
  EXPECT_EQ(released.size(), 10u);
  // Garbage collection freed the input log at or below the stable seq.
  EXPECT_EQ(prep.log_slots(), 3u);  // seqs 3, 4, 5
}

TEST(PrepCompartmentUnit, BackupIgnoresBatches) {
  Fixture fx;
  PrepCompartment prep(fx.config, 1, fx.signer(1, Compartment::Preparation),
                       fx.verifier, fx.clients, {});
  pbft::RequestBatch batch;
  batch.requests.push_back(fx.make_request(kFirstClientId, 1));
  EXPECT_TRUE(prep.deliver(fx.local_batch(batch, 1)).empty());
  EXPECT_EQ(prep.next_seq(), 0u);
}

TEST(PrepCompartmentUnit, RejectsBatchWithBadClientMac) {
  Fixture fx;
  PrepCompartment prep(fx.config, 0, fx.signer(0, Compartment::Preparation),
                       fx.verifier, fx.clients, {});
  pbft::RequestBatch batch;
  auto req = fx.make_request(kFirstClientId, 1);
  req.auth[0] ^= 1;  // forged
  batch.requests.push_back(std::move(req));
  EXPECT_TRUE(prep.deliver(fx.local_batch(batch, 0)).empty());
}

TEST(PrepCompartmentUnit, BackupPreparesValidPrePrepare) {
  Fixture fx;
  // Primary 0 creates; backup 1 validates.
  PrepCompartment primary(fx.config, 0, fx.signer(0, Compartment::Preparation),
                          fx.verifier, fx.clients, {});
  PrepCompartment backup(fx.config, 1, fx.signer(1, Compartment::Preparation),
                         fx.verifier, fx.clients, {});
  pbft::RequestBatch batch;
  batch.requests.push_back(fx.make_request(kFirstClientId, 1));
  const auto out = primary.deliver(fx.local_batch(batch, 0));

  // Find the copy addressed to backup 1's prep.
  const net::Envelope* to_backup = nullptr;
  for (const auto& env : out) {
    if (env.dst == principal::enclave({1, Compartment::Preparation})) {
      to_backup = &env;
    }
  }
  ASSERT_NE(to_backup, nullptr);
  const auto prepares = backup.deliver(*to_backup);
  // A Prepare to every Confirmation enclave.
  ASSERT_EQ(prepares.size(), 4u);
  for (const auto& env : prepares) {
    EXPECT_EQ(env.type, pbft::tag(pbft::MsgType::Prepare));
  }

  // Replay is ignored.
  EXPECT_TRUE(backup.deliver(*to_backup).empty());
}

TEST(PrepCompartmentUnit, RejectsPrePrepareFromNonPrimary) {
  Fixture fx;
  PrepCompartment backup(fx.config, 2, fx.signer(2, Compartment::Preparation),
                         fx.verifier, fx.clients, {});
  SplitPrePrepare pp;
  pp.view = 0;
  pp.seq = 1;
  pp.batch = pbft::RequestBatch{}.serialize();
  pp.batch_digest = crypto::sha256(pp.batch);
  pp.sender = 1;  // not the primary of view 0
  pp.has_batch = true;
  const auto env = make_pre_prepare_envelope(
      pp, *fx.signer(1, Compartment::Preparation),
      principal::enclave({2, Compartment::Preparation}));
  EXPECT_TRUE(backup.deliver(env).empty());
}

TEST(ConfCompartmentUnit, CommitRequiresHeaderPlusTwoFPrepares) {
  Fixture fx;
  ConfCompartment conf(fx.config, 3, fx.signer(3, Compartment::Confirmation),
                       fx.verifier);
  // Header from the primary's prep.
  SplitPrePrepare pp;
  pp.view = 0;
  pp.seq = 1;
  pp.batch_digest.bytes[0] = 7;
  pp.sender = 0;
  const auto header = make_pre_prepare_envelope(
      pp.stripped(), *fx.signer(0, Compartment::Preparation),
      principal::enclave({3, Compartment::Confirmation}));
  EXPECT_TRUE(conf.deliver(header).empty());

  // First backup prepare: still below quorum.
  const auto make_prep = [&](ReplicaId sender) {
    pbft::Prepare prep;
    prep.view = 0;
    prep.seq = 1;
    prep.batch_digest = pp.batch_digest;
    prep.sender = sender;
    net::Envelope env;
    env.dst = principal::enclave({3, Compartment::Confirmation});
    env.type = pbft::tag(pbft::MsgType::Prepare);
    env.payload = prep.serialize();
    net::sign_envelope(env, *fx.signer(sender, Compartment::Preparation));
    return env;
  };
  EXPECT_TRUE(conf.deliver(make_prep(1)).empty());

  // Second matching prepare completes the certificate: Commits to all
  // Execution enclaves.
  const auto commits = conf.deliver(make_prep(2));
  ASSERT_EQ(commits.size(), 4u);
  for (const auto& env : commits) {
    EXPECT_EQ(env.type, pbft::tag(pbft::MsgType::Commit));
  }
}

TEST(ConfCompartmentUnit, MismatchedDigestPreparesDoNotCount) {
  Fixture fx;
  ConfCompartment conf(fx.config, 3, fx.signer(3, Compartment::Confirmation),
                       fx.verifier);
  SplitPrePrepare pp;
  pp.view = 0;
  pp.seq = 1;
  pp.batch_digest.bytes[0] = 7;
  pp.sender = 0;
  (void)conf.deliver(make_pre_prepare_envelope(
      pp.stripped(), *fx.signer(0, Compartment::Preparation),
      principal::enclave({3, Compartment::Confirmation})));

  const auto make_prep = [&](ReplicaId sender, std::uint8_t digest_byte) {
    pbft::Prepare prep;
    prep.view = 0;
    prep.seq = 1;
    prep.batch_digest.bytes[0] = digest_byte;
    prep.sender = sender;
    net::Envelope env;
    env.dst = principal::enclave({3, Compartment::Confirmation});
    env.type = pbft::tag(pbft::MsgType::Prepare);
    env.payload = prep.serialize();
    net::sign_envelope(env, *fx.signer(sender, Compartment::Preparation));
    return env;
  };
  EXPECT_TRUE(conf.deliver(make_prep(1, 9)).empty());  // wrong digest
  EXPECT_TRUE(conf.deliver(make_prep(2, 9)).empty());  // wrong digest
  // Still no commit: only 0 matching prepares.
  EXPECT_TRUE(conf.deliver(make_prep(1, 7)).empty());  // 1 matching
  EXPECT_FALSE(conf.deliver(make_prep(2, 7)).empty());  // 2 matching -> commit
}

TEST(ConfCompartmentUnit, SuspicionTriggersViewChangeAndBlocksOldView) {
  Fixture fx;
  ConfCompartment conf(fx.config, 1, fx.signer(1, Compartment::Confirmation),
                       fx.verifier);
  net::Envelope suspect;
  suspect.dst = principal::enclave({1, Compartment::Confirmation});
  suspect.type = tag(LocalMsg::SuspectPrimary);
  const auto out = conf.deliver(suspect);
  // ViewChange to every Preparation enclave.
  ASSERT_EQ(out.size(), 4u);
  for (const auto& env : out) {
    EXPECT_EQ(env.type, pbft::tag(pbft::MsgType::ViewChange));
  }
  EXPECT_EQ(conf.view(), 1u);
  EXPECT_TRUE(conf.in_view_change());
}

TEST(EnclaveAdapter, MalformedEcallPayloadYieldsEmptyOutbox) {
  Fixture fx;
  auto logic = std::make_unique<ConfCompartment>(
      fx.config, 0, fx.signer(0, Compartment::Confirmation), fx.verifier);
  CompartmentEnclave enclave(std::move(logic));
  const auto outbox = decode_outbox(SharedBytes(enclave.ecall(
      static_cast<std::uint32_t>(tee::EcallFn::DeliverMessage),
      to_bytes("garbage"))));
  ASSERT_TRUE(outbox.has_value());
  EXPECT_TRUE(outbox->empty());
}

TEST(EnclaveAdapter, MeasurementMatchesCompartmentType) {
  Fixture fx;
  auto logic = std::make_unique<ConfCompartment>(
      fx.config, 0, fx.signer(0, Compartment::Confirmation), fx.verifier);
  CompartmentEnclave enclave(std::move(logic));
  EXPECT_EQ(enclave.measurement(),
            compartment_measurement(Compartment::Confirmation));
  EXPECT_NE(compartment_measurement(Compartment::Preparation),
            compartment_measurement(Compartment::Execution));
}

// Stand-in compartment for broker tests: answers every ecall with a
// preset outbox (empty unless the test sets one) and, given an inbox,
// records the type of every envelope delivered to it (given `delivered`,
// the whole envelope).
class ScriptedEnclave final : public tee::Enclave {
 public:
  explicit ScriptedEnclave(
      std::shared_ptr<std::vector<net::Envelope>> outbox,
      std::shared_ptr<std::vector<std::uint32_t>> inbox = nullptr,
      std::shared_ptr<std::vector<net::Envelope>> delivered = nullptr)
      : outbox_(std::move(outbox)),
        inbox_(std::move(inbox)),
        delivered_(std::move(delivered)) {}
  [[nodiscard]] Digest measurement() const override { return {}; }
  [[nodiscard]] Bytes ecall(std::uint32_t, ByteView input) override {
    if (auto env = net::Envelope::deserialize(input)) {
      if (inbox_) inbox_->push_back(env->type);
      if (delivered_) delivered_->push_back(std::move(*env));
    }
    return encode_outbox(*outbox_);
  }

 private:
  std::shared_ptr<std::vector<net::Envelope>> outbox_;
  std::shared_ptr<std::vector<std::uint32_t>> inbox_;
  std::shared_ptr<std::vector<net::Envelope>> delivered_;
};

[[nodiscard]] std::unique_ptr<tee::EnclaveHost> scripted_host(
    std::shared_ptr<std::vector<net::Envelope>> outbox,
    std::shared_ptr<std::vector<std::uint32_t>> inbox = nullptr,
    std::shared_ptr<std::vector<net::Envelope>> delivered = nullptr) {
  return std::make_unique<tee::EnclaveHost>(
      std::make_unique<ScriptedEnclave>(std::move(outbox), std::move(inbox),
                                        std::move(delivered)),
      tee::CostModel::simulation(), false);
}

[[nodiscard]] net::Envelope request_envelope(Fixture& fx, ClientId client,
                                             Timestamp ts) {
  net::Envelope env;
  env.src = principal::client(client);
  env.dst = principal::enclave({0, Compartment::Preparation});
  env.type = pbft::tag(pbft::MsgType::Request);
  env.payload = fx.make_request(client, ts).serialize();
  return env;
}

[[nodiscard]] Bytes reply_for(ClientId client, Timestamp ts) {
  pbft::Reply reply;
  reply.client = client;
  reply.timestamp = ts;
  reply.result = to_bytes("sealed result");
  reply.auth = Bytes(32, 0x11);
  return reply.serialize();
}

/// Has the scripted Execution enclave (whose outbox is `exec_out`) emit
/// `payload` as a Reply to `client`, and returns what the broker sent.
std::vector<net::Envelope> exec_replies(
    Broker& broker, std::vector<net::Envelope>& exec_out, ClientId client,
    Bytes payload, Micros now) {
  net::Envelope reply;
  reply.src = principal::enclave({0, Compartment::Execution});
  reply.dst = principal::client(client);
  reply.type = pbft::tag(pbft::MsgType::Reply);
  reply.payload = std::move(payload);
  exec_out = {reply};
  net::Envelope poke;
  poke.dst = principal::enclave({0, Compartment::Execution});
  poke.type = pbft::tag(pbft::MsgType::Commit);
  auto out = broker.handle(poke, now);
  exec_out.clear();
  return out;
}

// A Reply retires exactly its own client's requests at or below its
// timestamp: nothing of a neighbouring client, nothing newer.
TEST(Broker, ReplyRetiresOnlyItsClientsOlderRequests) {
  Fixture fx;
  const auto silent = std::make_shared<std::vector<net::Envelope>>();
  const auto exec_out = std::make_shared<std::vector<net::Envelope>>();
  Broker broker(fx.config, 0, scripted_host(silent), scripted_host(silent),
                scripted_host(exec_out));

  const ClientId c = kFirstClientId + 1;
  Micros now = 1;
  for (const ClientId client : {c - 1, c, c + 1}) {
    for (Timestamp ts = 1; ts <= 3; ++ts) {
      (void)broker.handle(request_envelope(fx, client, ts), now++);
    }
  }
  ASSERT_EQ(broker.outstanding_count(), 9u);

  const auto expect_reply = [&](ClientId client, Bytes payload) {
    const auto out =
        exec_replies(broker, *exec_out, client, std::move(payload), now++);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, pbft::tag(pbft::MsgType::Reply));
  };

  expect_reply(c, reply_for(c, 2));
  EXPECT_EQ(broker.outstanding_count(), 7u);  // c@3 and both neighbours
  expect_reply(c + 2, reply_for(c + 2, 5));
  EXPECT_EQ(broker.outstanding_count(), 7u);  // nothing outstanding there
  // A Reply that pbft::Reply::deserialize rejects (trailing bytes, a cut
  // auth field) retires nothing, though it is still forwarded.
  Bytes trailing = reply_for(c, UINT64_MAX);
  trailing.push_back(0);
  expect_reply(c, trailing);
  Bytes cut = reply_for(c, UINT64_MAX);
  cut.pop_back();
  ASSERT_FALSE(pbft::Reply::deserialize(cut).has_value());
  expect_reply(c, cut);
  EXPECT_EQ(broker.outstanding_count(), 7u);
  expect_reply(c, reply_for(c, UINT64_MAX));
  EXPECT_EQ(broker.outstanding_count(), 6u);  // c@3 retired
  expect_reply(c - 1, to_bytes("not a reply"));
  EXPECT_EQ(broker.outstanding_count(), 6u);
}

// The batch the broker cuts is RequestBatch::serialize() of its requests
// in (client, timestamp) order, byte for byte, though the broker never
// re-encodes a request: it concatenates the bytes it admitted.
TEST(Broker, CutBatchIsSerializeOfTheAdmittedRequests) {
  Fixture fx;
  fx.config.batch_max = 4;
  const auto silent = std::make_shared<std::vector<net::Envelope>>();
  const auto prep_in = std::make_shared<std::vector<net::Envelope>>();
  Broker broker(fx.config, 0, scripted_host(silent, nullptr, prep_in),
                scripted_host(silent), scripted_host(silent));
  const ClientId a = kFirstClientId;
  const ClientId b = kFirstClientId + 1;
  const std::pair<ClientId, Timestamp> arrivals[] = {
      {b, 2}, {a, 7}, {b, 1}, {a, 3}};
  Micros now = 1;
  for (const auto& [client, ts] : arrivals) {
    (void)broker.handle(request_envelope(fx, client, ts), now++);
  }
  ASSERT_EQ(prep_in->size(), 1u);  // batch_max reached: one cut
  const net::Envelope& batch = prep_in->front();
  EXPECT_EQ(batch.type, tag(LocalMsg::Batch));
  pbft::RequestBatch expected;
  for (const auto& [client, ts] :
       {std::pair{a, Timestamp{3}}, std::pair{a, Timestamp{7}},
        std::pair{b, Timestamp{1}}, std::pair{b, Timestamp{2}}}) {
    expected.requests.push_back(fx.make_request(client, ts));
  }
  EXPECT_EQ(batch.payload, expected.serialize());
  EXPECT_EQ(broker.pending_batch_size(), 0u);
  EXPECT_EQ(broker.outstanding_count(), 4u);
}

// The broker admits exactly the client Requests pbft::Request::deserialize
// accepts: one with trailing bytes or a cut auth field arms no timer and
// never reaches a batch.
TEST(Broker, MalformedRequestIsNotAdmitted) {
  Fixture fx;
  fx.config.batch_max = 1;  // every admitted request is cut at once
  const auto silent = std::make_shared<std::vector<net::Envelope>>();
  const auto prep_in = std::make_shared<std::vector<std::uint32_t>>();
  Broker broker(fx.config, 0, scripted_host(silent, prep_in),
                scripted_host(silent), scripted_host(silent));
  const Bytes valid = fx.make_request(kFirstClientId, 1).serialize();
  Bytes trailing = valid;
  trailing.push_back(0);
  Bytes short_auth = valid;
  short_auth.pop_back();
  for (const Bytes& payload : {trailing, short_auth}) {
    ASSERT_FALSE(pbft::Request::deserialize(payload).has_value());
    net::Envelope env = request_envelope(fx, kFirstClientId, 1);
    env.payload = SharedBytes::copy_of(payload);
    (void)broker.handle(env, 10);
    EXPECT_EQ(broker.outstanding_count(), 0u);
    EXPECT_TRUE(prep_in->empty());
  }
  (void)broker.handle(request_envelope(fx, kFirstClientId, 1), 11);
  EXPECT_EQ(broker.outstanding_count(), 1u);
  EXPECT_EQ(prep_in->size(), 1u);
}

// A request's suspicion fires at the first tick at or after its deadline
// and not before, and requeues it for the primary. The broker skips its
// suspicion walk below a lower bound on the deadlines; a Reply retiring an
// earlier request leaves that bound stale, which must neither delay nor
// drop a later request's suspicion, and a fresh request with an earlier
// deadline must pull the bound back down.
TEST(Broker, SuspicionFiresAtFirstTickAtOrAfterDeadline) {
  Fixture fx;
  fx.config.request_timeout_us = 1'000;
  fx.config.batch_timeout_us = 1;  // every tick cuts what is pending
  const auto silent = std::make_shared<std::vector<net::Envelope>>();
  const auto exec_out = std::make_shared<std::vector<net::Envelope>>();
  const auto prep_in = std::make_shared<std::vector<std::uint32_t>>();
  const auto conf_in = std::make_shared<std::vector<std::uint32_t>>();
  Broker broker(fx.config, 0, scripted_host(silent, prep_in),
                scripted_host(silent, conf_in), scripted_host(exec_out));

  struct TickResult {
    std::ptrdiff_t suspicions;
    std::ptrdiff_t batches;
  };
  const auto tick = [&](Micros now) {
    prep_in->clear();
    conf_in->clear();
    (void)broker.tick(now);
    return TickResult{
        std::count(conf_in->begin(), conf_in->end(),
                   tag(LocalMsg::SuspectPrimary)),
        std::count(prep_in->begin(), prep_in->end(), tag(LocalMsg::Batch))};
  };
  const auto expect_quiet = [&](Micros now) {
    EXPECT_EQ(tick(now).suspicions, 0) << "t=" << now;
    EXPECT_EQ(broker.pending_batch_size(), 0u) << "t=" << now;
  };
  const auto expect_suspicion = [&](Micros now) {
    const TickResult r = tick(now);
    EXPECT_EQ(r.suspicions, 1) << "t=" << now;
    EXPECT_EQ(r.batches, 1) << "requeue at t=" << now;
  };

  const ClientId a = kFirstClientId;
  const ClientId b = kFirstClientId + 1;
  const ClientId c = kFirstClientId + 2;
  (void)broker.handle(request_envelope(fx, a, 1), 100);  // due at 1'100
  (void)broker.handle(request_envelope(fx, b, 1), 500);  // due at 1'500
  (void)exec_replies(broker, *exec_out, a, reply_for(a, 1), 600);
  ASSERT_EQ(broker.outstanding_count(), 1u);

  expect_quiet(1'099);  // cuts the first batch
  expect_quiet(1'100);  // the stale bound: nothing is due
  expect_quiet(1'499);
  expect_suspicion(1'500);  // b; backs off to 1'500 + 2 * 1'000 = 3'500

  (void)broker.handle(request_envelope(fx, c, 1), 2'000);  // due at 3'000
  expect_quiet(2'999);
  expect_suspicion(3'000);  // c, ahead of b's backed-off deadline
  expect_quiet(3'499);
  expect_suspicion(3'500);  // b again
  EXPECT_EQ(broker.outstanding_count(), 2u);
}

}  // namespace
}  // namespace sbft::splitbft
