// A backup checks each client MAC once: a request it admitted on arrival
// is not re-checked inside the primary's PrePrepare, but only while the
// batched copy is byte-equal to the admitted one.
#include <gtest/gtest.h>

#include "apps/counter_app.hpp"
#include "crypto/keyring.hpp"
#include "crypto/sha256.hpp"
#include "pbft/replica.hpp"

namespace sbft::pbft {
namespace {

using apps::CounterApp;

constexpr ClientId kClient = 5000;

class BackupPrePrepareAuth : public ::testing::Test {
 protected:
  BackupPrePrepareAuth() : ring_(crypto::Scheme::HmacShared, 41) {
    config_.n = 4;
    config_.f = 1;
    config_.batch_max = 1;
    for (ReplicaId r = 0; r < config_.n; ++r) {
      ring_.add_principal(principal::pbft_replica(r));
    }
  }

  // Replica 1: a backup in view 0.
  [[nodiscard]] Replica make_backup() const {
    return Replica(config_, 1, ring_.signer(principal::pbft_replica(1)),
                   ring_.verifier(), directory_,
                   [] { return std::make_unique<CounterApp>(); });
  }

  [[nodiscard]] Request authed_request(Timestamp ts) const {
    Request req;
    req.client = kClient;
    req.timestamp = ts;
    req.payload = CounterApp::encode_add(7);
    const Digest mac = req.mac(directory_.hmac_key(kClient));
    req.auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    return req;
  }

  [[nodiscard]] static net::Envelope request_env(const Request& req) {
    net::Envelope env;
    env.src = principal::client(req.client);
    env.dst = principal::pbft_replica(1);
    env.type = tag(MsgType::Request);
    env.payload = req.serialize();
    return env;
  }

  // The view-0 primary's signed PrePrepare carrying `req` alone at `seq`.
  [[nodiscard]] net::Envelope pre_prepare_env(const Request& req,
                                              SeqNum seq) const {
    PrePrepare pp;
    pp.view = 0;
    pp.seq = seq;
    pp.batch = RequestBatch{{req}}.serialize();
    pp.batch_digest = crypto::sha256(pp.batch);
    pp.sender = 0;
    net::Envelope env;
    env.src = principal::pbft_replica(0);
    env.dst = principal::pbft_replica(1);
    env.type = tag(MsgType::PrePrepare);
    env.payload = pp.serialize();
    net::sign_envelope(env, *ring_.signer(principal::pbft_replica(0)));
    return env;
  }

  [[nodiscard]] static bool sends_prepare(
      const std::vector<net::Envelope>& out) {
    for (const auto& env : out) {
      if (env.type == tag(MsgType::Prepare)) return true;
    }
    return false;
  }

  Config config_;
  crypto::KeyRing ring_;
  ClientDirectory directory_{0x5ec7e7};
};

TEST_F(BackupPrePrepareAuth, ChangedPayloadUnderAdmittedMacGetsNoPrepare) {
  Replica backup = make_backup();
  const Request admitted = authed_request(1);
  (void)backup.handle(request_env(admitted), 1'000);

  // Same (client, ts) and the admitted MAC, one payload byte changed.
  Request tampered = admitted;
  tampered.payload.back() ^= 0x01;
  EXPECT_FALSE(sends_prepare(backup.handle(pre_prepare_env(tampered, 1),
                                           2'000)));

  // The original bytes at the same sequence number are prepared.
  EXPECT_TRUE(sends_prepare(backup.handle(pre_prepare_env(admitted, 1),
                                          3'000)));
}

TEST_F(BackupPrePrepareAuth, ChangedAuthUnderAdmittedPayloadGetsNoPrepare) {
  Replica backup = make_backup();
  const Request admitted = authed_request(1);
  (void)backup.handle(request_env(admitted), 1'000);

  Request forged = admitted;
  forged.auth.front() ^= 0x01;
  EXPECT_FALSE(sends_prepare(backup.handle(pre_prepare_env(forged, 1),
                                           2'000)));
  EXPECT_TRUE(sends_prepare(backup.handle(pre_prepare_env(admitted, 1),
                                          3'000)));
}

TEST_F(BackupPrePrepareAuth, UnseenRequestsAreStillMacChecked) {
  Replica backup = make_backup();
  Request tampered = authed_request(1);
  tampered.payload.back() ^= 0x01;
  EXPECT_FALSE(sends_prepare(backup.handle(pre_prepare_env(tampered, 1),
                                           1'000)));
  EXPECT_TRUE(sends_prepare(backup.handle(
      pre_prepare_env(authed_request(1), 1), 2'000)));
}

}  // namespace
}  // namespace sbft::pbft
