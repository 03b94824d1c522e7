#include "faults/pbft_attack.hpp"

#include "crypto/sha256.hpp"

namespace sbft::faults {

PbftEquivocationAttack::PbftEquivocationAttack(
    pbft::Config config, std::shared_ptr<const crypto::Signer> primary_signer,
    std::shared_ptr<const crypto::Signer> backup_signer, ReplicaId primary_id,
    ReplicaId backup_id)
    : config_(config),
      primary_signer_(std::move(primary_signer)),
      backup_signer_(std::move(backup_signer)),
      primary_id_(primary_id),
      backup_id_(backup_id) {}

void PbftEquivocationAttack::craft_certificate(const pbft::RequestBatch& batch,
                                               SeqNum seq, ReplicaId victim,
                                               std::vector<net::Envelope>& out) {
  const principal::Id dst = principal::pbft_replica(victim);

  pbft::PrePrepare pp;
  pp.view = 0;
  pp.seq = seq;
  pp.batch = batch.serialize();
  pp.batch_digest = crypto::sha256(pp.batch);
  pp.sender = primary_id_;
  {
    net::Envelope env;
    env.src = principal::pbft_replica(primary_id_);
    env.dst = dst;
    env.type = pbft::tag(pbft::MsgType::PrePrepare);
    env.payload = pp.serialize();
    net::sign_envelope(env, *primary_signer_);
    out.push_back(std::move(env));
  }

  pbft::Prepare prep;
  prep.view = 0;
  prep.seq = seq;
  prep.batch_digest = pp.batch_digest;
  prep.sender = backup_id_;
  {
    net::Envelope env;
    env.src = principal::pbft_replica(backup_id_);
    env.dst = dst;
    env.type = pbft::tag(pbft::MsgType::Prepare);
    env.payload = prep.serialize();
    net::sign_envelope(env, *backup_signer_);
    out.push_back(std::move(env));
  }

  for (const auto& [sender, signer] :
       {std::pair{primary_id_, primary_signer_.get()},
        std::pair{backup_id_, backup_signer_.get()}}) {
    pbft::Commit commit;
    commit.view = 0;
    commit.seq = seq;
    commit.batch_digest = pp.batch_digest;
    commit.sender = sender;
    net::Envelope env;
    env.src = principal::pbft_replica(sender);
    env.dst = dst;
    env.type = pbft::tag(pbft::MsgType::Commit);
    env.payload = commit.serialize();
    net::sign_envelope(env, *signer);
    out.push_back(std::move(env));
  }
}

std::vector<net::Envelope> PbftEquivocationAttack::handle(
    const net::Envelope& env, Micros) {
  if (launched_ || env.type != pbft::tag(pbft::MsgType::Request)) return {};
  auto req = pbft::Request::deserialize(env.payload);
  if (!req) return {};
  launched_ = true;

  // Proposal A: the real request; proposal B: the empty batch.
  pbft::RequestBatch batch_a;
  batch_a.requests.push_back(std::move(*req));
  const pbft::RequestBatch batch_b;

  std::vector<net::Envelope> out;
  // Victims: the two correct replicas (everyone we don't control).
  std::vector<ReplicaId> victims;
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r != primary_id_ && r != backup_id_) victims.push_back(r);
  }
  for (std::size_t i = 0; i < victims.size(); ++i) {
    craft_certificate(i % 2 == 0 ? batch_a : batch_b, 1, victims[i], out);
  }
  return out;
}

// ---------------------------------------------------------- read forgery

ReadReplyForger::ReadReplyForger(std::shared_ptr<runtime::Actor> inner,
                                 pbft::ClientDirectory directory,
                                 Bytes forged_result)
    : inner_(std::move(inner)),
      directory_(directory),
      forged_result_(std::move(forged_result)) {}

void ReadReplyForger::forge(std::vector<net::Envelope>& envs) {
  for (auto& e : envs) {
    if (e.type != pbft::tag(pbft::MsgType::ReadReply)) continue;
    auto rr = pbft::ReadReply::deserialize(e.payload);
    if (!rr) continue;
    // Consistent forgery: attacker value with its matching digest and a
    // VALID client MAC (replicas hold the shared client auth keys). The
    // vote verifies in isolation — only the 2f+1 quorum rule defeats it.
    rr->result_digest = crypto::sha256(forged_result_);
    rr->has_result = true;
    rr->result = forged_result_;
    const Digest mac = rr->mac(directory_.hmac_key(rr->client));
    rr->auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    e.payload = rr->serialize();
    ++forged_;
  }
}

std::vector<net::Envelope> ReadReplyForger::handle(const net::Envelope& env,
                                                   Micros now) {
  std::vector<net::Envelope> out = inner_->handle(env, now);
  forge(out);
  return out;
}

std::vector<net::Envelope> ReadReplyForger::tick(Micros now) {
  std::vector<net::Envelope> out = inner_->tick(now);
  forge(out);
  return out;
}

}  // namespace sbft::faults
