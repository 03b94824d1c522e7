#include "pbft/client.hpp"

#include "crypto/sha256.hpp"

namespace sbft::pbft {

Client::Client(Config config, ClientId id, const ClientDirectory& directory,
               Micros retry_timeout_us, ReplicaPrincipalFn replica_principal)
    : config_(config),
      id_(id),
      mac_key_(directory.hmac_key(id)),
      retry_timeout_us_(retry_timeout_us),
      replica_principal_(replica_principal) {}

std::vector<net::Envelope> Client::broadcast_request() const {
  std::vector<net::Envelope> out;
  net::Envelope env;
  env.src = principal::client(id_);
  env.type = tag(fast_read_ ? MsgType::ReadRequest : MsgType::Request);
  env.payload = request_.serialize();
  for (ReplicaId r = 0; r < config_.n; ++r) {
    env.dst = replica_principal_(r);
    out.push_back(env);
  }
  return out;
}

std::vector<net::Envelope> Client::submit(Bytes operation, Micros now,
                                          bool read_only) {
  in_flight_ = true;
  votes_.clear();
  read_votes_.clear();
  read_results_.clear();
  read_replied_.clear();
  operation_ = std::move(operation);
  ++timestamp_;

  request_ = Request{};
  request_.client = id_;
  request_.timestamp = timestamp_;
  request_.payload = operation_;
  const Digest mac = request_.mac(mac_key_);
  request_.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

  fast_read_ = read_only && config_.read_path;
  if (fast_read_) {
    // The fallback deadline covers loss and silent replicas; a mismatch
    // among all n replies falls back immediately from on_reply. The
    // ordered retry timer only arms once we fall back.
    read_deadline_ = now + config_.read_fallback_timeout_us;
    retry_deadline_ = 0;
  } else {
    read_deadline_ = 0;
    retry_deadline_ = now + retry_timeout_us_;
  }
  return broadcast_request();
}

void Client::finish() noexcept {
  in_flight_ = false;
  fast_read_ = false;
  retry_deadline_ = 0;
  read_deadline_ = 0;
}

void Client::fall_back(Micros now, std::vector<net::Envelope>& out) {
  if (!fast_read_) return;
  fast_read_ = false;
  read_deadline_ = 0;
  ++read_fallbacks_;
  // Same request bytes, ordered path: replicas never updated their
  // at-most-once state for the fast attempt, so the timestamp is still
  // fresh and the ordered execution is the operation's one linearization.
  retry_deadline_ = now + retry_timeout_us_;
  for (auto& env : broadcast_request()) out.push_back(std::move(env));
}

std::optional<Bytes> Client::on_read_reply(const net::Envelope& env,
                                           Micros now,
                                           std::vector<net::Envelope>& out) {
  auto rr = ReadReply::deserialize(env.payload);
  if (!rr || rr->client != id_ || rr->timestamp != timestamp_ ||
      rr->sender >= config_.n) {
    return std::nullopt;
  }
  if (!rr->mac_valid(mac_key_)) {
    return std::nullopt;  // forged read reply
  }
  if (env.src != replica_principal_(rr->sender)) {
    return std::nullopt;  // vote misattributed to another replica
  }
  if (!read_replied_.insert(rr->sender).second) {
    return std::nullopt;  // one vote per replica
  }

  const ReadKey key{rr->result_digest, rr->exec_seq};
  read_votes_[key].insert(rr->sender);
  if (rr->has_result && crypto::sha256(rr->result) == rr->result_digest) {
    read_results_.emplace(key, std::move(rr->result));
  }

  // Accept: 2f+1 matching (digest, exec_seq) votes plus a full value that
  // hashes to the quorum digest.
  const auto votes = read_votes_.find(key);
  if (votes->second.size() >= config_.quorum()) {
    const auto full = read_results_.find(key);
    if (full != read_results_.end()) {
      Bytes result = full->second;
      finish();
      ++fast_reads_;
      return result;
    }
  }
  // Every replica answered and no acceptable quorum formed (writes moved
  // the state between replies, or byzantine digests): order the read.
  if (read_replied_.size() >= config_.n) fall_back(now, out);
  return std::nullopt;
}

std::optional<Bytes> Client::on_reply(const net::Envelope& env, Micros now,
                                      std::vector<net::Envelope>& out) {
  if (!in_flight_) return std::nullopt;
  if (fast_read_ && env.type == tag(MsgType::ReadReply)) {
    return on_read_reply(env, now, out);
  }
  if (env.type != tag(MsgType::Reply)) return std::nullopt;
  // Ordered replies are accepted even while the fast read is pending:
  // replicas with the read path disabled serve reads through ordering, and
  // the two vote sets must not block each other.
  auto reply = Reply::deserialize(env.payload);
  if (!reply || reply->client != id_ || reply->timestamp != timestamp_ ||
      reply->sender >= config_.n) {
    return std::nullopt;
  }
  if (!reply->mac_valid(mac_key_)) {
    return std::nullopt;  // forged reply
  }
  auto& senders = votes_[reply->result];
  senders.insert(reply->sender);
  // With the read path on, ordered operations wait for 2f+1 matching
  // replies instead of f+1: every acknowledged write is then executed by
  // at least f+1 CORRECT replicas, so no later fast-read quorum can be
  // assembled purely from execution-lagging honest replicas plus f
  // byzantine echoes — the classic stale-read caveat of the PBFT
  // read-only optimization.
  const std::uint32_t needed =
      config_.read_path ? config_.quorum() : config_.f + 1;
  if (senders.size() >= needed) {
    finish();
    return reply->result;
  }
  return std::nullopt;
}

std::vector<net::Envelope> Client::tick(Micros now) {
  std::vector<net::Envelope> out;
  if (!in_flight_) return out;
  if (fast_read_) {
    if (read_deadline_ != 0 && now >= read_deadline_) fall_back(now, out);
    return out;
  }
  if (retry_deadline_ != 0 && now >= retry_deadline_) {
    retry_deadline_ = now + retry_timeout_us_;
    for (auto& env : broadcast_request()) out.push_back(std::move(env));
  }
  return out;
}

std::optional<Micros> Client::next_deadline() const {
  if (!in_flight_) return std::nullopt;
  if (fast_read_) {
    return read_deadline_ == 0 ? std::nullopt
                               : std::optional<Micros>(read_deadline_);
  }
  if (retry_deadline_ == 0) return std::nullopt;
  return retry_deadline_;
}

}  // namespace sbft::pbft
