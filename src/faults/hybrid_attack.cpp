#include "faults/hybrid_attack.hpp"

namespace sbft::faults {

std::vector<net::Envelope> HybridUsigAttack::handle(const net::Envelope& env,
                                                    Micros) {
  if (launched_ || env.type != pbft::tag(pbft::MsgType::Request)) return {};
  auto req = pbft::Request::deserialize(env.payload);
  if (!req) return {};
  launched_ = true;

  // Proposal A: the client's real request. Proposal B: a forged request
  // from the same client (replicas hold client MAC keys, so the forgery
  // authenticates — PBFT's original MAC-vector scheme has the same
  // property).
  pbft::Request forged;
  forged.client = req->client;
  forged.timestamp = req->timestamp;
  forged.payload = to_bytes("attacker-op");
  const Digest mac = forged.mac(directory_.hmac_key(forged.client));
  forged.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

  // The compromised TEE signs counter value 1 TWICE.
  hybrid::HybridPrepare prep_a;
  prep_a.view = 0;
  prep_a.request = std::move(*req);
  prep_a.sender = primary_id_;
  prep_a.ui = usig_->forge(prep_a.ui_digest(), 1);

  hybrid::HybridPrepare prep_b;
  prep_b.view = 0;
  prep_b.request = std::move(forged);
  prep_b.sender = primary_id_;
  prep_b.ui = usig_->forge(prep_b.ui_digest(), 1);

  std::vector<net::Envelope> out;
  std::vector<ReplicaId> backups;
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r != primary_id_) backups.push_back(r);
  }
  for (std::size_t i = 0; i < backups.size(); ++i) {
    const auto& prep = (i % 2 == 0) ? prep_a : prep_b;
    net::Envelope msg;
    msg.src = principal::hybrid_replica(primary_id_);
    msg.dst = principal::hybrid_replica(backups[i]);
    msg.type = hybrid::tag(hybrid::HybridMsg::Prepare);
    msg.payload = prep.serialize();
    out.push_back(std::move(msg));
  }
  return out;
}

}  // namespace sbft::faults
