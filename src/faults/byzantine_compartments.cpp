#include "faults/byzantine_compartments.hpp"

#include "pbft/client_directory.hpp"
#include "pbft/messages.hpp"
#include "splitbft/messages.hpp"

namespace sbft::faults {

std::vector<net::Envelope> EquivocatingPrep::deliver(const net::Envelope& env) {
  if (env.type != splitbft::tag(splitbft::LocalMsg::Batch)) {
    return inner_->deliver(env);
  }
  auto batch = pbft::RequestBatch::deserialize(env.payload);
  if (!batch || batch->empty()) return {};

  // Two conflicting proposals for the same sequence number: the real batch
  // and the empty batch (no client-MAC forgery needed).
  const SeqNum seq = ++next_seq_;
  ++equivocations_;

  splitbft::SplitPrePrepare pp_a;
  pp_a.view = 0;
  pp_a.seq = seq;
  pp_a.batch = batch->serialize();
  pp_a.batch_digest = crypto::sha256(pp_a.batch);
  pp_a.sender = self_;
  pp_a.has_batch = true;

  splitbft::SplitPrePrepare pp_b;
  pp_b.view = 0;
  pp_b.seq = seq;
  pp_b.batch = pbft::RequestBatch{}.serialize();
  pp_b.batch_digest = crypto::sha256(pp_b.batch);
  pp_b.sender = self_;
  pp_b.has_batch = true;

  std::vector<net::Envelope> out;
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == self_) continue;
    const auto& pp = (r % 2 == 0) ? pp_a : pp_b;
    out.push_back(splitbft::make_pre_prepare_envelope(
        pp, *signer_, principal::enclave({r, Compartment::Preparation})));
  }
  // Own compartments get proposal A.
  out.push_back(splitbft::make_pre_prepare_envelope(
      pp_a.stripped(), *signer_,
      principal::enclave({self_, Compartment::Confirmation})));
  out.push_back(splitbft::make_pre_prepare_envelope(
      pp_a, *signer_, principal::enclave({self_, Compartment::Execution})));
  return out;
}

std::vector<net::Envelope> CorruptCheckpointExec::deliver(
    const net::Envelope& env) {
  std::vector<net::Envelope> out = inner_->deliver(env);
  for (auto& e : out) {
    if (e.type != pbft::tag(pbft::MsgType::Checkpoint)) continue;
    auto cp = pbft::Checkpoint::deserialize(e.payload);
    if (!cp) continue;
    // Lie about the state digest (and re-sign: the enclave key is ours).
    cp->state_digest.bytes[0] ^= 0xff;
    cp->state_digest.bytes[31] ^= 0xff;
    e.payload = cp->serialize();
    net::sign_envelope(e, *signer_);
  }
  return out;
}

std::vector<net::Envelope> ForgingReplyExec::deliver(const net::Envelope& env) {
  std::vector<net::Envelope> out = inner_->deliver(env);
  for (auto& e : out) {
    if (e.type != pbft::tag(pbft::MsgType::Reply)) continue;
    auto reply = pbft::Reply::deserialize(e.payload);
    if (!reply) continue;
    reply->result = forged_result_;
    // The Execution enclave holds the client auth key: the forged reply
    // carries a VALID Mac. Only f+1 matching protects the client.
    const Digest mac = reply->mac(directory_.hmac_key(reply->client));
    reply->auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    e.payload = reply->serialize();
  }
  return out;
}

std::vector<net::Envelope> ForgingReadExec::deliver(const net::Envelope& env) {
  std::vector<net::Envelope> out = inner_->deliver(env);
  for (auto& e : out) {
    if (e.type != pbft::tag(pbft::MsgType::ReadReply)) continue;
    auto rr = pbft::ReadReply::deserialize(e.payload);
    if (!rr) continue;
    // A stale/forged vote: corrupted digest, attacker value in place of
    // the honest one. The client auth key is enclave-held, so the MAC
    // verifies — only the 2f+1 (digest, seq) quorum protects the client.
    rr->result_digest.bytes[0] ^= 0xff;
    rr->result_digest.bytes[31] ^= 0xff;
    if (rr->has_result) rr->result = forged_result_;
    const Digest mac = rr->mac(directory_.hmac_key(rr->client));
    rr->auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    e.payload = rr->serialize();
    ++forged_;
  }
  return out;
}

}  // namespace sbft::faults
