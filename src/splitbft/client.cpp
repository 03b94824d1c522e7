#include "splitbft/client.hpp"

#include <algorithm>

#include "common/serde.hpp"
#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"
#include "crypto/x25519.hpp"
#include "splitbft/compartment.hpp"
#include "tee/attestation.hpp"

namespace sbft::splitbft {

SplitClient::SplitClient(pbft::Config config, ClientId id,
                         const pbft::ClientDirectory& directory,
                         TrustAnchors anchors, std::uint64_t seed,
                         Micros retry_timeout_us)
    : config_(config),
      id_(id),
      mac_key_(directory.hmac_key(id)),
      anchors_(anchors),
      rng_(seed ^ (0xc11e47ULL + id)),
      retry_timeout_us_(retry_timeout_us) {
  for (auto& b : session_key_) b = static_cast<std::uint8_t>(rng_.next_u64());
  dh_secret_ = crypto::x25519_keygen(rng_);
  // dh_public_ is derived lazily on first attestation: deriving it costs a
  // scalar multiplication, and benchmark runs with thousands of clients
  // pre-install sessions without ever attesting.
}

std::vector<net::Envelope> SplitClient::begin_session(Micros now) {
  session_retry_deadline_ = now + retry_timeout_us_;
  attest_nonce_ = rng_.bytes(16);
  AttestRequest req;
  req.client = id_;
  req.nonce = attest_nonce_;

  std::vector<net::Envelope> out;
  const SharedBytes payload(req.serialize());  // one frame for all copies
  for (ReplicaId r = 0; r < config_.n; ++r) {
    for (const Compartment c :
         {Compartment::Execution, Compartment::Preparation}) {
      net::Envelope env;
      env.src = principal::client(id_);
      env.dst = principal::enclave({r, c});
      env.type = pbft::tag(pbft::MsgType::AttestRequest);
      env.payload = payload;
      out.push_back(std::move(env));
    }
  }
  return out;
}

void SplitClient::handle_attest_report(const net::Envelope& env,
                                       std::vector<net::Envelope>& out) {
  auto report = AttestReport::deserialize(env.payload);
  if (!report || report->replica >= config_.n) return;
  auto quote = tee::Quote::deserialize(report->quote);
  if (!quote) return;

  // Pin the expected code identity for the claimed compartment type.
  const Digest expected = compartment_measurement(report->compartment);
  if (!tee::verify_quote(anchors_.attestation_root, *quote, expected)) return;

  auto rd = ReportData::deserialize(quote->report_data);
  if (!rd || rd->nonce != attest_nonce_) return;  // replayed quote
  const principal::Id expected_principal =
      principal::enclave({report->replica, report->compartment});
  if (rd->signing_principal != expected_principal) return;

  if (report->compartment != Compartment::Execution) return;  // verified only
  if (session_inits_sent_.contains(report->replica)) return;
  session_inits_sent_.insert(report->replica);
  if (!dh_public_ready_) {
    dh_public_ = crypto::x25519_base(dh_secret_);
    dh_public_ready_ = true;
  }

  // Wrap the session key for this Execution enclave.
  const crypto::Key32 shared = crypto::x25519(dh_secret_, rd->dh_public);
  const crypto::Key32 wrap_key = crypto::derive_key(
      ByteView{shared.data(), shared.size()}, "session-wrap");

  SessionInit init;
  init.client = id_;
  init.client_dh_public = dh_public_;
  init.sealed_session_key = crypto::aead_seal(
      wrap_key, crypto::make_nonce(channels::kSessionWrap, id_), {},
      ByteView{session_key_.data(), session_key_.size()});
  const Digest mac = crypto::hmac_sha256(mac_key_, init.auth_input());
  init.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

  net::Envelope msg;
  msg.src = principal::client(id_);
  msg.dst = principal::enclave({report->replica, Compartment::Execution});
  msg.type = pbft::tag(pbft::MsgType::SessionInit);
  msg.payload = init.serialize();
  out.push_back(std::move(msg));
}

void SplitClient::handle_session_ack(const net::Envelope& env) {
  auto ack = SessionAck::deserialize(env.payload);
  if (!ack || ack->client != id_ || ack->replica >= config_.n) return;
  if (!crypto::hmac_verify(
          crypto::hmac_key(ByteView{session_key_.data(), session_key_.size()}),
          ack->auth_input(), ack->auth)) {
    return;  // ack not under our fresh session key
  }
  acks_.insert(ack->replica);
  if (session_ready()) session_retry_deadline_ = 0;
}

std::vector<net::Envelope> SplitClient::on_message(const net::Envelope& env,
                                                   Micros now) {
  (void)now;
  std::vector<net::Envelope> out;
  switch (static_cast<pbft::MsgType>(env.type)) {
    case pbft::MsgType::AttestReport:
      handle_attest_report(env, out);
      break;
    case pbft::MsgType::SessionAck:
      handle_session_ack(env);
      break;
    default:
      break;
  }
  return out;
}

std::vector<net::Envelope> SplitClient::broadcast_request() const {
  std::vector<net::Envelope> out;
  net::Envelope env;
  env.src = principal::client(id_);
  env.type = pbft::tag(fast_read_ ? pbft::MsgType::ReadRequest
                                  : pbft::MsgType::Request);
  env.payload = request_;
  // Built once here, the signing-input memo is shared by every copy below,
  // so each destination's wire image is the only per-copy encode.
  (void)env.signing_input_view();
  out.reserve(config_.n);
  for (ReplicaId r = 0; r < config_.n; ++r) {
    env.dst = principal::splitbft_env(r);
    out.push_back(env);
  }
  return out;
}

std::vector<net::Envelope> SplitClient::submit(Bytes operation, Micros now,
                                               bool read_only) {
  in_flight_ = true;
  votes_.clear();
  read_votes_.clear();
  read_results_.clear();
  read_replied_.clear();
  ++timestamp_;

  // End-to-end encryption: only Execution enclaves hold the session key.
  // Fast reads seal under the same request channel — the ordered fallback
  // re-broadcasts these exact bytes, so the operation is encrypted once.
  // The Request is written once, in its wire layout, into one buffer: the
  // header, the operation sealed in place, then the client MAC.
  const std::size_t sealed_size = operation.size() + crypto::kAeadTagBytes;
  Writer w(pbft::kRequestHeaderBytes + sealed_size + pbft::kMacFieldBytes);
  pbft::write_request_header(w, id_, timestamp_, sealed_size);
  crypto::aead_seal_into(session_key_,
                         crypto::make_nonce(channels::kRequest, timestamp_),
                         {}, operation, w.extend(sealed_size));
  pbft::append_mac(w, mac_key_);
  request_ = SharedBytes(std::move(w).take());

  fast_read_ = read_only && config_.read_path;
  if (fast_read_) {
    read_deadline_ = now + config_.read_fallback_timeout_us;
    retry_deadline_ = 0;
  } else {
    read_deadline_ = 0;
    retry_deadline_ = now + retry_timeout_us_;
  }
  return broadcast_request();
}

void SplitClient::finish() noexcept {
  in_flight_ = false;
  fast_read_ = false;
  retry_deadline_ = 0;
  read_deadline_ = 0;
}

void SplitClient::fall_back(Micros now, std::vector<net::Envelope>& out) {
  if (!fast_read_) return;
  fast_read_ = false;
  read_deadline_ = 0;
  ++read_fallbacks_;
  retry_deadline_ = now + retry_timeout_us_;
  for (auto& env : broadcast_request()) out.push_back(std::move(env));
}

std::optional<Bytes> SplitClient::on_read_reply(
    const net::Envelope& env, Micros now, std::vector<net::Envelope>& out) {
  auto rr = pbft::ReadReply::deserialize(env.payload);
  if (!rr || rr->client != id_ || rr->timestamp != timestamp_ ||
      rr->sender >= config_.n) {
    return std::nullopt;
  }
  if (!rr->mac_valid(mac_key_)) {
    return std::nullopt;  // forged read reply
  }
  if (env.src != principal::enclave({rr->sender, Compartment::Execution})) {
    return std::nullopt;  // vote misattributed to another enclave
  }
  if (!read_replied_.insert(rr->sender).second) {
    return std::nullopt;  // one vote per replica
  }

  const ReadKey key{rr->result_digest, rr->exec_seq};
  read_votes_[key].insert(rr->sender);
  if (rr->has_result) {
    // The designated responder's value is encrypted for us under a key
    // derived from (timestamp, advertised state version, replica) — see
    // ExecCompartment::serve_read; it counts only if the decrypted
    // plaintext digests to the advertised vote.
    Writer ctx;
    ctx.u64(rr->timestamp);
    ctx.u64(rr->exec_seq);
    ctx.u32(rr->sender);
    const crypto::Key32 seal_key = crypto::derive_key(
        ByteView{session_key_.data(), session_key_.size()},
        "read-reply-seal", std::move(ctx).take());
    const auto plain = crypto::aead_open(
        seal_key,
        crypto::make_nonce(channels::kReadReplyBase + rr->sender,
                           rr->timestamp),
        {}, rr->result);
    if (plain && read_result_digest(session_key_, rr->timestamp, *plain) ==
                     rr->result_digest) {
      read_results_.emplace(key, std::move(*plain));
    }
  }

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
  if (read_replied_.size() >= config_.n) fall_back(now, out);
  return std::nullopt;
}

std::optional<Bytes> SplitClient::on_reply(const net::Envelope& env,
                                           Micros now,
                                           std::vector<net::Envelope>& out) {
  if (!in_flight_) return std::nullopt;
  if (fast_read_ && env.type == pbft::tag(pbft::MsgType::ReadReply)) {
    return on_read_reply(env, now, out);
  }
  if (env.type != pbft::tag(pbft::MsgType::Reply)) {
    return std::nullopt;
  }
  // Parsed in place: the reply's fields are views into its frame.
  const auto reply = pbft::ReplyView::parse(env.payload);
  if (!reply || reply->client != id_ || reply->timestamp != timestamp_ ||
      reply->sender >= config_.n) {
    return std::nullopt;
  }
  if (!reply->mac_valid(mac_key_)) return std::nullopt;

  static const Bytes kNoOp = no_op_marker();
  Bytes vote;
  if (std::ranges::equal(reply->result, kNoOp)) {
    vote = kNoOp;  // replica executed a no-op
  } else {
    if (reply->result.size() < crypto::kAeadTagBytes) return std::nullopt;
    vote.resize(reply->result.size() - crypto::kAeadTagBytes);
    if (!crypto::aead_open_into(
            session_key_,
            crypto::make_nonce(channels::kReplyBase + reply->sender,
                               reply->timestamp),
            {}, reply->result, vote.data())) {
      return std::nullopt;  // not for us / corrupted
    }
  }
  const auto votes = votes_.try_emplace(std::move(vote)).first;
  votes->second.insert(reply->sender);
  // See pbft::Client::on_reply: read_path strengthens the ordered reply
  // quorum to 2f+1 so fast reads can never miss an acknowledged write.
  const std::uint32_t needed =
      config_.read_path ? config_.quorum() : config_.f + 1;
  if (votes->second.size() >= needed) {
    finish();
    return votes->first;
  }
  return std::nullopt;
}

std::vector<net::Envelope> SplitClient::tick(Micros now) {
  std::vector<net::Envelope> out;
  // Session setup retransmission: lossy links may drop any handshake leg.
  if (!session_ready() && session_retry_deadline_ != 0 &&
      now >= session_retry_deadline_) {
    session_retry_deadline_ = now + retry_timeout_us_;
    AttestRequest req;
    req.client = id_;
    req.nonce = attest_nonce_;
    const SharedBytes payload(req.serialize());  // one frame for all copies
    for (ReplicaId r = 0; r < config_.n; ++r) {
      if (acks_.contains(r)) continue;
      session_inits_sent_.erase(r);  // allow a fresh SessionInit
      net::Envelope env;
      env.src = principal::client(id_);
      env.dst = principal::enclave({r, Compartment::Execution});
      env.type = pbft::tag(pbft::MsgType::AttestRequest);
      env.payload = payload;
      out.push_back(std::move(env));
    }
  }
  if (in_flight_ && fast_read_) {
    // Unanswered fast read: give up on the single-round path and order it.
    if (read_deadline_ != 0 && now >= read_deadline_) fall_back(now, out);
  } else if (in_flight_ && retry_deadline_ != 0 && now >= retry_deadline_) {
    retry_deadline_ = now + retry_timeout_us_;
    for (auto& env : broadcast_request()) out.push_back(std::move(env));
  }
  return out;
}

std::optional<Micros> SplitClient::next_deadline() const {
  std::optional<Micros> next;
  if (in_flight_ && fast_read_ && read_deadline_ != 0) next = read_deadline_;
  if (in_flight_ && !fast_read_ && retry_deadline_ != 0) {
    next = retry_deadline_;
  }
  if (!session_ready() && session_retry_deadline_ != 0 &&
      (!next || session_retry_deadline_ < *next)) {
    next = session_retry_deadline_;
  }
  return next;
}

}  // namespace sbft::splitbft
