#include "hybrid/minbft.hpp"

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace sbft::hybrid {

// ------------------------------------------------------------ messages

Bytes HybridPrepare::serialize() const {
  Writer w;
  w.u64(view);
  w.bytes(request.serialize());
  w.bytes(ui.serialize());
  w.u32(sender);
  return std::move(w).take();
}

std::optional<HybridPrepare> HybridPrepare::deserialize(ByteView data) {
  Reader r(data);
  HybridPrepare m;
  m.view = r.u64();
  const Bytes req = r.bytes();
  const Bytes ui_bytes = r.bytes();
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  auto request = pbft::Request::deserialize(req);
  auto ui = UI::deserialize(ui_bytes);
  if (!request || !ui) return std::nullopt;
  m.request = std::move(*request);
  m.ui = std::move(*ui);
  return m;
}

Digest HybridPrepare::ui_digest() const {
  Writer w;
  w.u64(view);
  w.bytes(request.serialize());
  return crypto::sha256(w.data());
}

Bytes HybridCommit::serialize() const {
  Writer w;
  w.bytes(prepare.serialize());
  w.bytes(ui.serialize());
  w.u32(sender);
  return std::move(w).take();
}

std::optional<HybridCommit> HybridCommit::deserialize(ByteView data) {
  Reader r(data);
  HybridCommit m;
  const Bytes prep = r.bytes();
  const Bytes ui_bytes = r.bytes();
  m.sender = r.u32();
  if (!r.done()) return std::nullopt;
  auto prepare = HybridPrepare::deserialize(prep);
  auto ui = UI::deserialize(ui_bytes);
  if (!prepare || !ui) return std::nullopt;
  m.prepare = std::move(*prepare);
  m.ui = std::move(*ui);
  return m;
}

Digest HybridCommit::ui_digest() const {
  return crypto::sha256(prepare.serialize());
}

// ------------------------------------------------------------- replica

HybridReplica::HybridReplica(pbft::Config config, ReplicaId id,
                             std::shared_ptr<Usig> usig,
                             std::shared_ptr<const crypto::Verifier> verifier,
                             pbft::ClientDirectory clients,
                             apps::AppFactory app_factory)
    : config_(config),
      id_(id),
      usig_(std::move(usig)),
      auth_(std::move(verifier)),
      clients_(clients),
      app_(app_factory()) {}

net::Envelope HybridReplica::to_replica(HybridMsg type, SharedBytes payload,
                                        ReplicaId dst) const {
  net::Envelope env;
  env.src = principal::hybrid_replica(id_);
  env.dst = principal::hybrid_replica(dst);
  env.type = tag(type);
  env.payload = std::move(payload);  // broadcast copies share one frame
  // Authentication comes from the embedded USIG signatures.
  return env;
}

std::vector<net::Envelope> HybridReplica::handle(const net::Envelope& env,
                                                 Micros now) {
  (void)now;
  Out out;
  if (env.type == pbft::tag(pbft::MsgType::Request)) {
    on_request(env, out);
  } else if (env.type == tag(HybridMsg::Prepare)) {
    on_prepare(env, out);
  } else if (env.type == tag(HybridMsg::Commit)) {
    on_commit(env, out);
  }
  return out;
}

std::vector<net::Envelope> HybridReplica::tick(Micros) { return {}; }

void HybridReplica::on_request(const net::Envelope& env, Out& out) {
  auto req = pbft::Request::deserialize(env.payload);
  if (!req) return;
  if (!req->mac_valid(clients_.hmac_key(req->client))) return;
  const auto record = client_records_.find(req->client);
  if (record != client_records_.end() &&
      req->timestamp <= record->second.last_ts) {
    return;  // duplicate; replies are re-sent on execution path only
  }
  if (!is_primary()) return;  // backups rely on the primary (no view change)

  HybridPrepare prepare;
  prepare.view = view_;
  prepare.request = std::move(*req);
  prepare.sender = id_;
  prepare.ui = usig_->create(prepare.ui_digest());

  const SharedBytes payload(prepare.serialize());
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == id_) continue;
    out.push_back(to_replica(HybridMsg::Prepare, payload, r));
  }
  last_counter_[id_] = prepare.ui.counter;
  certify(prepare, id_, out);
}

void HybridReplica::on_prepare(const net::Envelope& env, Out& out) {
  auto prepare = HybridPrepare::deserialize(env.payload);
  if (!prepare || prepare->sender != config_.primary(view_) ||
      prepare->view != view_) {
    return;
  }
  // Backups re-check client authentication (never trust the primary).
  if (!prepare->request.mac_valid(
          clients_.hmac_key(prepare->request.client))) {
    return;
  }
  // Verify the primary's UI and counter freshness: a UI counter may be
  // used exactly once (non-equivocation — given an intact TEE).
  if (!Usig::verify(auth_, principal::hybrid_replica(prepare->sender),
                    prepare->ui_digest(), prepare->ui)) {
    return;
  }
  auto& last = last_counter_[prepare->sender];
  if (prepare->ui.counter <= last) return;  // replayed/duplicated counter
  last = prepare->ui.counter;

  HybridCommit commit;
  commit.prepare = *prepare;
  commit.sender = id_;
  commit.ui = usig_->create(commit.ui_digest());

  const SharedBytes payload(commit.serialize());
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == id_) continue;
    out.push_back(to_replica(HybridMsg::Commit, payload, r));
  }
  certify(*prepare, prepare->sender, out);
  certify(*prepare, id_, out);
}

void HybridReplica::on_commit(const net::Envelope& env, Out& out) {
  auto commit = HybridCommit::deserialize(env.payload);
  if (!commit || commit->sender >= config_.n) return;
  const auto& prepare = commit->prepare;
  if (prepare.view != view_ || prepare.sender != config_.primary(view_)) {
    return;
  }
  if (!Usig::verify(auth_, principal::hybrid_replica(prepare.sender),
                    prepare.ui_digest(), prepare.ui)) {
    return;
  }
  if (!Usig::verify(auth_, principal::hybrid_replica(commit->sender),
                    commit->ui_digest(), commit->ui)) {
    return;
  }
  // Accept the primary's counter through this commit too (we may not have
  // seen the prepare directly).
  auto& last_primary = last_counter_[prepare.sender];
  const auto existing = orders_.find(prepare.ui.counter);
  if (existing == orders_.end()) {
    if (prepare.ui.counter <= last_primary &&
        last_primary != 0) {  // counter reuse across different requests
      return;
    }
    last_primary = std::max(last_primary, prepare.ui.counter);
  } else if (existing->second.prepare.ui_digest() != prepare.ui_digest()) {
    return;  // conflicting prepare for the same counter: equivocation
  }
  certify(prepare, commit->sender, out);
  certify(prepare, id_, out);
}

void HybridReplica::certify(const HybridPrepare& prepare, ReplicaId certifier,
                            Out& out) {
  auto& order = orders_[prepare.ui.counter];
  if (order.certifiers.empty()) order.prepare = prepare;
  order.certifiers.insert(certifier);
  try_execute(out);
}

void HybridReplica::try_execute(Out& out) {
  for (;;) {
    const auto it = orders_.find(last_executed_ + 1);
    if (it == orders_.end() || it->second.executed ||
        it->second.certifiers.size() < config_.f + 1) {
      return;
    }
    PendingOrder& order = it->second;
    order.executed = true;
    last_executed_ = order.prepare.ui.counter;

    const pbft::Request& req = order.prepare.request;
    auto& record = client_records_[req.client];
    Bytes result;
    if (req.timestamp > record.last_ts) {
      result = app_->execute(req.payload);
      record.last_ts = req.timestamp;
      record.last_result = result;
      record.has_reply = true;
    } else if (record.has_reply) {
      result = record.last_result;
    } else {
      continue;
    }
    executed_digests_[last_executed_] = req.digest();

    pbft::Reply reply;
    reply.view = view_;
    reply.timestamp = req.timestamp;
    reply.client = req.client;
    reply.sender = id_;
    reply.result = result;
    const Digest mac = reply.mac(clients_.hmac_key(req.client));
    reply.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

    net::Envelope env;
    env.src = principal::hybrid_replica(id_);
    env.dst = principal::client(req.client);
    env.type = pbft::tag(pbft::MsgType::Reply);
    env.payload = reply.serialize();
    out.push_back(std::move(env));
  }
}

}  // namespace sbft::hybrid
