#include "faults/shard_attack.hpp"

#include "apps/kv_store.hpp"
#include "pbft/messages.hpp"

namespace sbft::faults {

KvReplyForger::KvReplyForger(std::shared_ptr<runtime::Actor> inner,
                             pbft::ClientDirectory directory)
    : inner_(std::move(inner)), directory_(directory) {}

void KvReplyForger::forge(std::vector<net::Envelope>& envs) {
  for (auto& e : envs) {
    if (e.type != pbft::tag(pbft::MsgType::Reply)) continue;
    auto reply = pbft::Reply::deserialize(e.payload);
    if (!reply) continue;
    const auto kv_reply = apps::kv::decode_reply(reply->result);
    if (!kv_reply || kv_reply->status == apps::KvStatus::Ok) continue;
    // Lie: every failed vote (CasMismatch, NotFound, TxBusy, ...) becomes
    // a prepare-ok with a VALID client MAC. The vote verifies in
    // isolation — only the per-shard f+1 matching-reply rule defeats it.
    reply->result = apps::kv::encode_reply(apps::KvStatus::Ok);
    const Digest mac = reply->mac(directory_.hmac_key(reply->client));
    reply->auth = Bytes(mac.bytes.begin(), mac.bytes.end());
    e.payload = reply->serialize();
    ++forged_;
  }
}

std::vector<net::Envelope> KvReplyForger::handle(const net::Envelope& env,
                                                 Micros now) {
  std::vector<net::Envelope> out = inner_->handle(env, now);
  forge(out);
  return out;
}

std::vector<net::Envelope> KvReplyForger::tick(Micros now) {
  std::vector<net::Envelope> out = inner_->tick(now);
  forge(out);
  return out;
}

}  // namespace sbft::faults
