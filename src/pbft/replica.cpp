#include "pbft/replica.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "pbft/reply_cache.hpp"
#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace sbft::pbft {

namespace {
const Logger& logger() {
  static const Logger log{"pbft"};
  return log;
}
}  // namespace

Replica::Replica(Config config, ReplicaId id,
                 std::shared_ptr<const crypto::Signer> signer,
                 std::shared_ptr<const crypto::Verifier> verifier,
                 ClientDirectory clients, apps::AppFactory app_factory,
                 std::shared_ptr<net::VerifyCache> auth,
                 std::shared_ptr<runtime::runner::OrderedRunner> runner)
    : config_(config),
      id_(id),
      signer_(std::move(signer)),
      auth_(auth ? std::move(auth)
                 : std::make_shared<net::VerifyCache>(std::move(verifier))),
      clients_(clients),
      app_(app_factory()),
      runner_(runner ? std::move(runner)
                     : std::make_shared<runtime::runner::SyncOrderedRunner>()) {
  if (config_.auto_tune) {
    tuner_ = std::make_unique<runtime::runner::AutoTuner>(
        runtime::runner::TuningLimits{}, config_.batch_max,
        config_.pipeline_depth, config_.read_batch_max);
    config_.batch_max = tuner_->batch_max();
    config_.pipeline_depth = tuner_->pipeline_depth();
    config_.read_batch_max = tuner_->read_batch_max();
  }
}

// --------------------------------------------------------------- plumbing

net::Envelope Replica::make_signed(MsgType type, SharedBytes payload,
                                   principal::Id dst) const {
  net::Envelope env;
  env.src = principal::pbft_replica(id_);
  env.dst = dst;
  env.type = tag(type);
  env.payload = std::move(payload);
  net::sign_envelope(env, *signer_);
  return env;
}

void Replica::broadcast(MsgType type, SharedBytes payload, Out& out) const {
  // Sign once, then address a copy to every other replica.
  broadcast_env(make_signed(type, std::move(payload), 0), out);
}

void Replica::broadcast_env(const net::Envelope& env, Out& out) const {
  net::Envelope copy = env;
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == id_) continue;
    copy.dst = principal::pbft_replica(r);
    out.push_back(copy);
  }
}

bool Replica::in_window(SeqNum seq) const noexcept {
  return seq > last_stable_ && seq <= last_stable_ + config_.watermark_window;
}

void Replica::update_request_timer(Micros now) {
  (void)now;
  // The suspicion deadline tracks the OLDEST still-pending request, not
  // "time since last progress": a primary that keeps serving other clients
  // must still be suspected when one client's request starves. Arrivals
  // are recorded in order, so the front of the queue (skipping entries
  // whose request has since executed or been superseded) is the oldest.
  while (!pending_arrivals_.empty() &&
         !pending_requests_.contains(pending_arrivals_.front().second)) {
    pending_arrivals_.pop_front();
  }
  request_timer_ = pending_arrivals_.empty()
                       ? 0
                       : pending_arrivals_.front().first +
                             config_.request_timeout_us;
}

Digest Replica::executed_digest(SeqNum seq) const {
  const auto it = executed_digests_.find(seq);
  return it == executed_digests_.end() ? Digest{} : it->second;
}

Replica::GcFootprint Replica::gc_footprint() const {
  GcFootprint fp;
  fp.log_slots = log_.size();
  if (!log_.empty()) fp.min_log_seq = log_.begin()->first;
  fp.checkpoint_seqs = checkpoints_.size();
  if (!checkpoints_.empty()) fp.min_checkpoint_seq = checkpoints_.begin()->first;
  fp.snapshots = snapshots_.size();
  if (!snapshots_.empty()) fp.min_snapshot_seq = snapshots_.begin()->first;
  fp.view_change_views = view_changes_.size();
  if (!view_changes_.empty()) {
    fp.min_view_change_view = view_changes_.begin()->first;
  }
  fp.new_view_markers = new_view_sent_.size();
  fp.pending_requests = pending_requests_.size();
  fp.client_records = client_records_.size();
  for (const auto& [client, record] : client_records_) {
    if (record.has_reply) ++fp.cached_replies;
  }
  fp.runner_queue = runner_->queue_depth();
  fp.staged_replies = staged_out_.size();
  return fp;
}

// ---------------------------------------------------------- staged runner

void Replica::stage_reply(ClientId client, Timestamp ts, View view,
                          Bytes result) {
  // Parallel stage: build + MAC + serialize from captured copies only.
  // clients_.hmac_key is a thread-safe sharded cache; nothing here may
  // reference client_records_ (gc_client_records strips bodies while work
  // is still in flight within the same engine call).
  runner_->submit([this, client, ts, view, result = std::move(result)]() mutable
                  -> runtime::runner::Epilogue {
    Reply reply;
    reply.view = view;
    reply.timestamp = ts;
    reply.client = client;
    reply.sender = id_;
    reply.result = std::move(result);
    const Digest mac = reply.mac(clients_.hmac_key(client));
    reply.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

    net::Envelope env;
    env.src = principal::pbft_replica(id_);
    env.dst = principal::client(client);
    env.type = tag(MsgType::Reply);
    env.payload = reply.serialize();
    // Ordered stage: queue in submission order on the engine thread.
    return [this, env = std::move(env)]() mutable {
      staged_out_.push_back(std::move(env));
    };
  });
}

void Replica::flush_runner(Out& out) {
  runner_->drain();
  if (staged_out_.empty()) return;
  out.insert(out.end(), std::make_move_iterator(staged_out_.begin()),
             std::make_move_iterator(staged_out_.end()));
  staged_out_.clear();
}

void Replica::observe_tuner(Micros now) {
  if (!tuner_) return;
  if (tuner_->observe(pending_requests_.size(), now)) {
    config_.batch_max = tuner_->batch_max();
    config_.pipeline_depth = tuner_->pipeline_depth();
    config_.read_batch_max = tuner_->read_batch_max();
  }
}

// ------------------------------------------------------------ entry points

std::vector<net::Envelope> Replica::handle(const net::Envelope& env,
                                           Micros now) {
  Out out;
  switch (static_cast<MsgType>(env.type)) {
    case MsgType::Request:
      on_request(env, now, out);
      break;
    case MsgType::ReadRequest:
      on_read_request(env, now, out);
      break;
    case MsgType::PrePrepare:
      on_pre_prepare(env, now, out);
      break;
    case MsgType::Prepare:
      on_prepare(env, now, out);
      break;
    case MsgType::Commit:
      on_commit(env, now, out);
      break;
    case MsgType::Checkpoint:
      on_checkpoint(env, now, out);
      break;
    case MsgType::ViewChange:
      on_view_change(env, now, out);
      break;
    case MsgType::NewView:
      on_new_view(env, now, out);
      break;
    case MsgType::StateRequest:
      on_state_request(env, out);
      break;
    case MsgType::StateResponse:
      on_state_response(env, now, out);
      break;
    case MsgType::StateChunkRequest:
      on_state_chunk_request(env, out);
      break;
    case MsgType::StateChunkResponse:
      on_state_chunk_response(env, now, out);
      break;
    default:
      break;  // unknown type: drop
  }
  flush_runner(out);
  return out;
}

std::vector<net::Envelope> Replica::tick(Micros now) {
  Out out;
  observe_tuner(now);
  if (!boot_probe_sent_) {
    boot_probe_sent_ = true;
    // Rebooted with no state: probe for the group's stable checkpoint.
    // Peers still at seq 0 ignore it; a peer ahead answers with its
    // certificate and the fetch starts. One shot — re-broadcasts are only
    // armed while a transfer is actually pending.
    if (last_stable_ == 0 && last_executed_ == 0 && !awaiting_state_) {
      send_state_request(now, out);
    }
  }
  if (batch_deadline_ != 0 && now >= batch_deadline_) {
    batch_deadline_ = 0;
    if (is_primary() && !in_view_change_) cut_batch(now, out);
  }
  if (!in_view_change_ && request_timer_ != 0 && now >= request_timer_) {
    request_timer_ = 0;
    logger().info() << "r" << id_ << " request timeout, view change to "
                    << (view_ + 1);
    start_view_change(view_ + 1, now, out);
  }
  if (in_view_change_ && view_change_timer_ != 0 &&
      now >= view_change_timer_) {
    start_view_change(pending_view_ + 1, now, out);
  }
  if (awaiting_state_) {
    if (fetcher_) {
      // Chunk-level retry/backoff lives in the fetcher: expired
      // assignments move to other peers here.
      emit_chunk_requests(fetcher_->pump(now), out);
    } else if (state_request_timer_ != 0 && now >= state_request_timer_) {
      send_state_request(now, out);
    }
  }
  flush_runner(out);
  return out;
}

std::optional<Micros> Replica::next_deadline() const {
  std::optional<Micros> next;
  const auto consider = [&next](Micros t) {
    if (t != 0 && (!next || t < *next)) next = t;
  };
  consider(batch_deadline_);
  if (!in_view_change_) consider(request_timer_);
  if (in_view_change_) consider(view_change_timer_);
  if (awaiting_state_) {
    if (fetcher_) {
      if (const auto d = fetcher_->next_deadline()) consider(*d);
    } else {
      consider(state_request_timer_);
    }
  }
  return next;
}

// ----------------------------------------------------------------- request

void Replica::on_request(const net::Envelope& env, Micros now, Out& out) {
  auto req = Request::deserialize(env.payload);
  if (!req) return;
  if (!req->mac_valid(clients_.hmac_key(req->client))) {
    return;  // unauthenticated client
  }

  // Lookup only — records are created at EXECUTION, never on arrival:
  // arrival-time creation would leak timing-dependent entries into the
  // checkpointed client table (and grow it without bound for clients whose
  // requests never commit).
  const auto rec_it = client_records_.find(req->client);
  if (rec_it != client_records_.end() &&
      req->timestamp <= rec_it->second.last_ts) {
    const ClientRecord& record = rec_it->second;
    // At-most-once: retransmit the cached reply for the latest request.
    // MAC + serialize run on the runner (copies captured — records may be
    // stripped before the prologue runs).
    if (req->timestamp == record.last_ts && record.has_reply) {
      stage_reply(req->client, record.last_ts, record.last_view,
                  record.last_result);
    }
    return;
  }

  const auto pending_key = std::make_pair(req->client, req->timestamp);
  const bool fresh = !pending_requests_.contains(pending_key);
  // Admission control: shed FRESH work past the cap before it creates
  // protocol state or arms a suspicion timer. Silence is the backpressure
  // signal — the client retransmits and retries admission. Retransmits of
  // already-admitted requests always pass (dropping those would turn
  // overload into a liveness failure).
  if (fresh && config_.admission_queue_cap != 0 &&
      pending_requests_.size() >= config_.admission_queue_cap) {
    ++admission_rejects_;
    return;
  }
  // Only requests whose MAC checked out above enter this table, which is
  // what lets on_pre_prepare skip re-checking a byte-equal copy.
  pending_requests_[pending_key] = std::move(*req);
  // Record the FIRST arrival only: a retransmit of a still-pending request
  // must not refresh its suspicion deadline (nor grow the queue).
  if (fresh) pending_arrivals_.emplace_back(now, pending_key);
  update_request_timer(now);
  observe_tuner(now);

  if (is_primary() && !in_view_change_) {
    if (pending_requests_.size() >= config_.batch_max) {
      cut_batch(now, out);
    } else if (config_.batch_max <= 1) {
      cut_batch(now, out);
    } else if (batch_deadline_ == 0) {
      batch_deadline_ = now + config_.batch_timeout_us;
    }
  }
}

void Replica::on_read_request(const net::Envelope& env, Micros now, Out& out) {
  if (!config_.read_path) {
    // Fast path disabled on this replica: the payload is a regular
    // serialized Request, so serve it through ordering instead. The client
    // accepts ordered Replies for an in-flight read, so mixed
    // configurations stay live.
    on_request(env, now, out);
    return;
  }
  auto req = Request::deserialize(env.payload);
  if (!req) return;
  const crypto::HmacKey key = clients_.hmac_key(req->client);
  if (!req->mac_valid(key)) return;  // unauthenticated client
  // Only operations the app declares read-only may bypass ordering; for
  // anything else the client's fallback timeout re-submits through the
  // ordered path.
  if (!app_->is_read_only(req->payload)) return;

  // Serve the read on the runner: execute_read is const against
  // last-executed state, which is stable for the rest of this engine call
  // (ordered mutations only happen on the engine thread, and the runner is
  // drained before handle() returns). No sequence number, no client record
  // (reads must not grow the at-most-once table), no timers.
  const ClientId client = req->client;
  const Timestamp ts = req->timestamp;
  const SeqNum exec_seq = last_executed_;
  const bool responder = config_.read_responder(client, ts) == id_;
  runner_->submit([this, client, ts, exec_seq, key, responder,
                   payload = req->payload]() -> runtime::runner::Epilogue {
    Bytes result = app_->execute_read(payload);
    ReadReply rr;
    rr.timestamp = ts;
    rr.client = client;
    rr.sender = id_;
    rr.exec_seq = exec_seq;
    rr.result_digest = crypto::sha256(result);
    if (responder) {
      rr.has_result = true;
      rr.result = std::move(result);
    }
    const Digest mac = rr.mac(key);
    rr.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

    net::Envelope renv;
    renv.src = principal::pbft_replica(id_);
    renv.dst = principal::client(client);
    renv.type = tag(MsgType::ReadReply);
    renv.payload = rr.serialize();
    return [this, renv = std::move(renv)]() mutable {
      ++reads_served_;
      staged_out_.push_back(std::move(renv));
    };
  });
}

SeqNum Replica::in_flight_batches() const noexcept {
  // Sequence numbers assigned but not yet executed locally. Saturating:
  // a state transfer can move last_executed_ past a backup's stale
  // next_seq_ before it ever leads a view.
  return next_seq_ > last_executed_ ? next_seq_ - last_executed_ : 0;
}

void Replica::cut_batch(Micros now, Out& out) {
  if (!is_primary() || in_view_change_ || pending_requests_.empty()) return;
  if (!in_window(next_seq_ + 1) ||
      !config_.pipeline_open(in_flight_batches())) {
    // Window full or pipeline at depth: requests stay buffered and the
    // gate flag re-triggers cutting on execution/stability progress.
    batch_gated_ = true;
    return;
  }
  batch_gated_ = false;
  RequestBatch batch;
  auto it = pending_requests_.begin();
  while (it != pending_requests_.end() &&
         batch.requests.size() < config_.batch_max) {
    const auto rec_it = client_records_.find(it->second.client);
    if (rec_it != client_records_.end() &&
        it->second.timestamp <= rec_it->second.last_ts) {
      it = pending_requests_.erase(it);  // stale
      continue;
    }
    batch.requests.push_back(std::move(it->second));
    it = pending_requests_.erase(it);
  }
  if (batch.empty()) return;

  const SeqNum seq = ++next_seq_;
  PrePrepare pp;
  pp.view = view_;
  pp.seq = seq;
  pp.batch = batch.serialize();
  pp.batch_digest = crypto::sha256(pp.batch);
  pp.sender = id_;

  Slot& s = slot(seq);
  // Sign once; the stored copy is attested (we are the signer) and the
  // broadcast copies reuse the signature.
  net::Envelope ppe =
      make_signed(MsgType::PrePrepare, SharedBytes(pp.serialize()), 0);
  s.pre_prepare = std::move(pp);
  s.batch = std::move(batch);
  broadcast_env(ppe, out);
  s.pre_prepare_env = auth_->attest_own(std::move(ppe), *signer_);

  // Keep batching if more requests are queued and the pipeline has room.
  if (!pending_requests_.empty()) {
    if (pending_requests_.size() >= config_.batch_max ||
        config_.batch_max <= 1) {
      cut_batch(now, out);
    } else if (batch_deadline_ == 0) {
      batch_deadline_ = now + config_.batch_timeout_us;
    }
  }
  check_prepared(seq, now, out);
}

// ------------------------------------------------------------- pre-prepare

void Replica::on_pre_prepare(const net::Envelope& env, Micros now, Out& out) {
  if (in_view_change_) return;
  auto pp = PrePrepare::deserialize(env.payload);
  if (!pp) return;
  if (pp->view != view_ || pp->sender != config_.primary(view_) ||
      pp->sender == id_ || !in_window(pp->seq)) {
    return;
  }
  auto verified = auth_->verify(env, principal::pbft_replica(pp->sender));
  if (!verified) return;
  if (crypto::sha256(pp->batch) != pp->batch_digest) return;
  auto batch = RequestBatch::deserialize(pp->batch);
  if (!batch) return;
  for (const auto& req : batch->requests) {
    // A byte-equal copy of a request this replica already admitted had its
    // MAC checked on arrival (the MAC covers client, timestamp and payload).
    const auto known = pending_requests_.find({req.client, req.timestamp});
    if (known != pending_requests_.end() &&
        known->second.payload == req.payload &&
        known->second.auth == req.auth) {
      continue;
    }
    if (!req.mac_valid(clients_.hmac_key(req.client))) {
      return;  // batch smuggles an unauthenticated request
    }
  }

  Slot& s = slot(pp->seq);
  if (s.pre_prepare) {
    // Conflicting pre-prepare from the primary is byzantine behaviour;
    // keep the first, the view-change timer handles the rest.
    return;
  }
  s.pre_prepare = std::move(*pp);
  s.pre_prepare_env = std::move(*verified);
  s.batch = std::move(batch);
  const PrePrepare& accepted = *s.pre_prepare;
  // Drop buffered prepares that do not match the accepted digest.
  std::erase_if(s.prepares, [&](const auto& kv) {
    return kv.second.first != accepted.batch_digest;
  });

  Prepare prep;
  prep.view = accepted.view;
  prep.seq = accepted.seq;
  prep.batch_digest = accepted.batch_digest;
  prep.sender = id_;
  // Serialize and sign the prepare once: the broadcast copies and the
  // stored own-vote all share the same frames.
  net::Envelope my_prepare =
      make_signed(MsgType::Prepare, SharedBytes(prep.serialize()), 0);
  broadcast_env(my_prepare, out);
  s.prepares.try_emplace(id_, prep.batch_digest,
                         auth_->attest_own(std::move(my_prepare), *signer_));

  check_prepared(prep.seq, now, out);
}

// ----------------------------------------------------------------- prepare

void Replica::on_prepare(const net::Envelope& env, Micros now, Out& out) {
  if (in_view_change_) return;
  auto prep = Prepare::deserialize(env.payload);
  if (!prep) return;
  if (prep->view != view_ || !in_window(prep->seq) ||
      prep->sender == config_.primary(view_) || prep->sender == id_ ||
      prep->sender >= config_.n) {
    return;
  }
  auto verified = auth_->verify(env, principal::pbft_replica(prep->sender));
  if (!verified) return;
  Slot& s = slot(prep->seq);
  if (s.pre_prepare && s.pre_prepare->batch_digest != prep->batch_digest) {
    return;  // vote for a different proposal
  }
  s.prepares.try_emplace(prep->sender, prep->batch_digest,
                         std::move(*verified));
  check_prepared(prep->seq, now, out);
}

void Replica::check_prepared(SeqNum seq, Micros now, Out& out) {
  Slot& s = slot(seq);
  if (s.prepared || !s.pre_prepare) return;
  const Digest& digest = s.pre_prepare->batch_digest;
  std::uint32_t matching = 0;
  for (const auto& [sender, vote] : s.prepares) {
    if (vote.first == digest) ++matching;
  }
  if (matching < config_.prepared_quorum()) return;
  s.prepared = true;

  Commit commit;
  commit.view = s.pre_prepare->view;
  commit.seq = seq;
  commit.batch_digest = digest;
  commit.sender = id_;
  // One serialization + one signature for own vote and broadcast alike.
  net::Envelope my_commit =
      make_signed(MsgType::Commit, SharedBytes(commit.serialize()), 0);
  broadcast_env(my_commit, out);
  s.commits.try_emplace(id_, digest,
                        auth_->attest_own(std::move(my_commit), *signer_));

  check_committed(seq, now, out);
}

// ------------------------------------------------------------------ commit

void Replica::on_commit(const net::Envelope& env, Micros now, Out& out) {
  if (in_view_change_) return;
  auto commit = Commit::deserialize(env.payload);
  if (!commit) return;
  if (commit->view != view_ || !in_window(commit->seq) ||
      commit->sender == id_ || commit->sender >= config_.n) {
    return;
  }
  auto verified = auth_->verify(env, principal::pbft_replica(commit->sender));
  if (!verified) return;
  Slot& s = slot(commit->seq);
  s.commits.try_emplace(commit->sender, commit->batch_digest,
                        std::move(*verified));
  check_committed(commit->seq, now, out);
}

void Replica::check_committed(SeqNum seq, Micros now, Out& out) {
  Slot& s = slot(seq);
  if (s.committed || !s.prepared || !s.pre_prepare) return;
  const Digest& digest = s.pre_prepare->batch_digest;
  std::uint32_t matching = 0;
  for (const auto& [sender, vote] : s.commits) {
    if (vote.first == digest) ++matching;
  }
  if (matching < config_.quorum()) return;
  s.committed = true;
  try_execute(now, out);
}

// --------------------------------------------------------------- execution

void Replica::try_execute(Micros now, Out& out) {
  const SeqNum executed_before = last_executed_;
  while (!awaiting_state_) {
    const SeqNum seq = last_executed_ + 1;
    const auto it = log_.find(seq);
    if (it == log_.end()) break;
    Slot& s = it->second;
    if (!s.committed || !s.pre_prepare) break;
    // Slots a NewView installed carry no parsed copy yet.
    if (!s.batch) s.batch = RequestBatch::deserialize(s.pre_prepare->batch);
    if (!s.batch) break;  // cannot happen for validated slots
    execute_batch(seq, *s.batch, now, out);
    s.batch.reset();  // executed: only view changes read the slot now
    // Prune the at-most-once table at the execution point only: every
    // replica has executed the identical prefix here, so they evict the
    // identical records and checkpoint digests stay aligned.
    gc_client_records();
    executed_digests_[seq] = s.pre_prepare->batch_digest;
    last_executed_ = seq;
    maybe_checkpoint(seq, now, out);
  }
  // An execution slot freed: cut the next pipelined batch immediately.
  if (last_executed_ != executed_before && batch_gated_) {
    cut_batch(now, out);
  }
  // Recompute the suspicion deadline from the oldest STILL-pending
  // request: progress on other clients' batches must not shield a primary
  // that censors one client (the deadline moves only when the starved
  // request itself executes or is superseded).
  update_request_timer(now);
}

void Replica::execute_batch(SeqNum seq, const RequestBatch& batch, Micros now,
                            Out& out) {
  (void)seq;
  (void)now;
  (void)out;
  // Ordered-commit stage, inline on the engine thread: app mutations and
  // reply-cache updates happen in sequence order so checkpoint digests are
  // byte-identical to the serial path. Reply MAC/serialize — the dominant
  // per-request cost after execution — is staged on the runner, so request
  // i+1 executes here while request i's reply is MAC'd on a worker.
  for (const auto& req : batch.requests) {
    auto& record = client_records_[req.client];
    Bytes result;
    if (req.timestamp > record.last_ts) {
      result = app_->execute(req.payload);
      record.last_ts = req.timestamp;
      record.last_result = result;
      record.last_view = view_;
      record.has_reply = true;
      ++executed_requests_;
    } else if (req.timestamp == record.last_ts && record.has_reply) {
      result = record.last_result;  // duplicate: re-reply
    } else {
      continue;  // stale duplicate
    }
    pending_requests_.erase({req.client, req.timestamp});

    stage_reply(req.client, req.timestamp, view_, std::move(result));
  }
}

void Replica::gc_client_records() {
  strip_reply_cache(client_records_, config_.client_record_cap);
}

// -------------------------------------------------------------- checkpoint

Bytes Replica::protocol_snapshot() const {
  Writer w;
  w.bytes(app_->snapshot());
  w.u32(static_cast<std::uint32_t>(client_records_.size()));
  // std::map view of the unordered table for canonical ordering.
  std::map<ClientId, const ClientRecord*> ordered;
  for (const auto& [client, record] : client_records_) {
    ordered.emplace(client, &record);
  }
  for (const auto& [client, record] : ordered) {
    w.u32(client);
    w.u64(record->last_ts);
    w.bytes(record->last_result);
    w.u64(record->last_view);
    w.boolean(record->has_reply);
  }
  return std::move(w).take();
}

bool Replica::parse_client_records(
    Reader& r, std::unordered_map<ClientId, ClientRecord>& records) const {
  const std::uint32_t count = r.u32();
  if (r.failed() || count > 1'000'000) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const ClientId client = r.u32();
    ClientRecord record;
    record.last_ts = r.u64();
    record.last_result = r.bytes();
    record.last_view = r.u64();
    record.has_reply = r.boolean();
    records.emplace(client, std::move(record));
  }
  return r.done();
}

bool Replica::restore_protocol_snapshot(ByteView data) {
  Reader r(data);
  const Bytes app_snapshot = r.bytes();
  if (r.failed()) return false;
  std::unordered_map<ClientId, ClientRecord> records;
  if (!parse_client_records(r, records)) return false;
  if (!app_->restore(app_snapshot)) return false;
  client_records_ = std::move(records);
  return true;
}

Digest Replica::snapshot_digest(ByteView snapshot) const {
  return snapshot_commitment(snapshot, config_.state_chunk_bytes);
}

void Replica::maybe_checkpoint(SeqNum seq, Micros now, Out& out) {
  if (config_.checkpoint_interval == 0 ||
      seq % config_.checkpoint_interval != 0) {
    return;
  }
  // Chunk + tree once; the certificate digest and every future chunk
  // response come from the same ChunkedSnapshot.
  ChunkedSnapshot snapshot(
      protocol_snapshot(),
      std::max<std::uint64_t>(config_.state_chunk_bytes, 1));
  Checkpoint cp;
  cp.seq = seq;
  cp.state_digest = snapshot.commitment();
  cp.sender = id_;
  snapshots_[seq] = std::move(snapshot);

  // Sign the checkpoint once; broadcast copies and the locally-processed
  // own vote share the frames and the memoized digest.
  const net::Envelope my_cp =
      make_signed(MsgType::Checkpoint, SharedBytes(cp.serialize()), 0);
  broadcast_env(my_cp, out);
  process_own_checkpoint(seq, my_cp, now, out);
}

void Replica::process_own_checkpoint(SeqNum seq, const net::Envelope& env,
                                     Micros now, Out& out) {
  auto cp = Checkpoint::deserialize(env.payload);
  if (!cp) return;
  auto& by_digest = checkpoints_[seq][cp->state_digest];
  by_digest.insert_or_assign(id_, auth_->attest_own(env, *signer_));
  if (by_digest.size() >= config_.quorum()) {
    std::vector<net::VerifiedEnvelope> proof;
    for (const auto& [sender, e] : by_digest) proof.push_back(e.clone());
    make_stable(seq, std::move(proof), now, out);
  }
}

void Replica::on_checkpoint(const net::Envelope& env, Micros now, Out& out) {
  auto cp = Checkpoint::deserialize(env.payload);
  if (!cp) return;
  if (cp->seq <= last_stable_ || cp->sender == id_ ||
      cp->sender >= config_.n) {
    return;
  }
  auto verified = auth_->verify(env, principal::pbft_replica(cp->sender));
  if (!verified) return;
  auto& by_digest = checkpoints_[cp->seq][cp->state_digest];
  by_digest.try_emplace(cp->sender, std::move(*verified));
  if (by_digest.size() >= config_.quorum()) {
    std::vector<net::VerifiedEnvelope> proof;
    for (const auto& [sender, e] : by_digest) proof.push_back(e.clone());
    make_stable(cp->seq, std::move(proof), now, out);
  }
}

void Replica::make_stable(SeqNum seq, std::vector<net::VerifiedEnvelope> proof,
                          Micros now, Out& out) {
  if (seq <= last_stable_) return;
  const SeqNum prev_stable = last_stable_;
  last_stable_ = seq;
  stable_proof_ = std::move(proof);

  log_.erase(log_.begin(), log_.upper_bound(seq));
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.upper_bound(seq));
  // Retain the PREVIOUS stable snapshot alongside the new one: a peer
  // mid-fetch of it gets one checkpoint interval of hysteresis to finish
  // instead of restarting from chunk 0 every time the group checkpoints —
  // without this, recovery livelocks whenever a transfer takes longer
  // than one checkpoint period.
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    if (it->first < prev_stable) {
      it = snapshots_.erase(it);
    } else {
      ++it;
    }
  }

  if (last_executed_ < seq &&
      (!awaiting_state_ || (fetcher_ && fetcher_->seq() < prev_stable) ||
       (awaiting_state_ && !fetcher_ && config_.streaming_state))) {
    // The group moved past us — fetch the newer checkpointed state. An
    // active fetch is retargeted only once its snapshot ages out of the
    // peers' retention window (older than the previous stable seq);
    // inside the window it completes, and finish_streaming_restore
    // chains the follow-up fetch if we are still behind.
    begin_state_fetch(seq, now, out);
  }
  // The watermark window advanced: release a batch the window was gating.
  if (batch_gated_) cut_batch(now, out);
}

// ------------------------------------------------------------ state trans.

void Replica::begin_state_fetch(SeqNum seq, Micros now, Out& out) {
  awaiting_state_ = true;
  awaited_state_seq_ = seq;
  if (!config_.streaming_state) {
    state_request_backoff_ = 0;
    send_state_request(now, out);
    return;
  }
  // The expected manifest commitment comes from our own stable
  // certificate — 2f+1 signatures strong before any peer is consulted.
  Digest commitment;
  if (!stable_proof_.empty()) {
    if (const auto cp =
            Checkpoint::deserialize(stable_proof_.front().envelope().payload)) {
      commitment = cp->state_digest;
    }
  }
  if (commitment.is_zero()) {
    // No usable certificate (cannot happen for quorum-made checkpoints) —
    // fall back to the announce path.
    state_request_backoff_ = 0;
    send_state_request(now, out);
    return;
  }
  if (fetcher_) accumulate_fetcher_stats();
  ChunkFetcher::Config fc;
  fc.n = config_.n;
  fc.self = id_;
  fc.chunks_per_request = config_.state_chunks_per_request;
  fc.inflight_max_bytes = config_.state_inflight_max_bytes;
  fc.chunk_timeout_us = config_.state_chunk_timeout_us;
  fetcher_ = std::make_unique<ChunkFetcher>(fc, seq, commitment, now);
  applier_ = std::make_unique<SnapshotApplier>(app_.get());
  state_request_timer_ = 0;
  logger().info() << "r" << id_ << " streaming state fetch toward seq "
                  << seq;
  emit_chunk_requests(fetcher_->pump(now), out);
}

void Replica::send_state_request(Micros now, Out& out) {
  StateRequest sr;
  sr.seq = awaited_state_seq_;
  sr.sender = id_;
  broadcast(MsgType::StateRequest, SharedBytes(sr.serialize()), out);
  ++xfer_stats_.state_requests_sent;
  // Exponential backoff between re-broadcasts: a replica stuck behind a
  // stable checkpoint asks again, but never storms the group.
  const Micros min_b = std::max<Micros>(config_.state_request_backoff_min_us, 1);
  state_request_backoff_ =
      state_request_backoff_ == 0
          ? min_b
          : std::min(state_request_backoff_ * 2,
                     std::max<Micros>(config_.state_request_backoff_max_us,
                                      min_b));
  state_request_timer_ = now + state_request_backoff_;
}

void Replica::emit_chunk_requests(
    const std::vector<ChunkFetcher::Request>& requests, Out& out) {
  for (const auto& req : requests) {
    StateChunkRequest cr;
    cr.seq = fetcher_->seq();
    cr.first_chunk = req.first_chunk;
    cr.count = req.count;
    cr.sender = id_;
    out.push_back(make_signed(MsgType::StateChunkRequest,
                              SharedBytes(cr.serialize()),
                              principal::pbft_replica(req.peer)));
    ++xfer_stats_.chunk_requests_sent;
  }
}

void Replica::accumulate_fetcher_stats() {
  if (!fetcher_) return;
  const auto& s = fetcher_->stats();
  xfer_stats_.chunks_accepted += s.chunks_accepted;
  xfer_stats_.chunks_rejected += s.chunks_rejected;
  xfer_stats_.chunks_duplicate += s.chunks_duplicate;
  xfer_stats_.refetches += s.refetches;
  xfer_stats_.chunk_bytes_received += s.bytes_received;
  xfer_stats_.peak_inflight_bytes =
      std::max(xfer_stats_.peak_inflight_bytes, s.peak_inflight_bytes);
}

Replica::StateTransferStats Replica::state_transfer_stats() const {
  StateTransferStats stats = xfer_stats_;
  if (fetcher_) {
    const auto& s = fetcher_->stats();
    stats.chunks_accepted += s.chunks_accepted;
    stats.chunks_rejected += s.chunks_rejected;
    stats.chunks_duplicate += s.chunks_duplicate;
    stats.refetches += s.refetches;
    stats.chunk_bytes_received += s.bytes_received;
    stats.peak_inflight_bytes =
        std::max(stats.peak_inflight_bytes, s.peak_inflight_bytes);
  }
  return stats;
}

void Replica::abandon_transfer(Micros now) {
  accumulate_fetcher_stats();
  if (applier_) applier_->abort();
  fetcher_.reset();
  applier_.reset();
  // Still behind: fall back to a fresh announce (rate-limited).
  state_request_backoff_ = 0;
  state_request_timer_ = now + 1;
}

void Replica::drain_fetcher(Micros now, Out& out) {
  for (Bytes& chunk : fetcher_->take_ready()) {
    if (!applier_->feed(chunk)) {
      logger().info() << "r" << id_ << " snapshot apply failed, restarting";
      abandon_transfer(now);
      return;
    }
  }
  if (fetcher_->complete()) {
    finish_streaming_restore(now, out);
  } else {
    emit_chunk_requests(fetcher_->pump(now), out);
  }
}

void Replica::finish_streaming_restore(Micros now, Out& out) {
  const SeqNum seq = fetcher_->seq();
  // Validate the protocol tail BEFORE committing the app: a malformed
  // tail must not leave the app restored but the client table stale.
  std::unordered_map<ClientId, ClientRecord> records;
  Reader tail(applier_->tail());
  if (!applier_->app_complete() || !parse_client_records(tail, records) ||
      !applier_->finish()) {
    logger().info() << "r" << id_ << " streaming restore failed at seq "
                    << seq;
    abandon_transfer(now);
    return;
  }
  client_records_ = std::move(records);
  last_executed_ = seq;
  log_.erase(log_.begin(), log_.upper_bound(seq));
  awaiting_state_ = false;
  // Deliberately NOT materializing snapshots_[seq]: the transfer streamed
  // into the app precisely to avoid holding snapshot-sized buffers; this
  // replica serves peers from its next own checkpoint.
  accumulate_fetcher_stats();
  ++xfer_stats_.transfers_completed;
  fetcher_.reset();
  applier_.reset();
  state_request_timer_ = 0;
  logger().info() << "r" << id_ << " streaming state transfer to seq "
                  << seq;
  try_execute(now, out);
  if (last_executed_ < last_stable_) {
    // The group checkpointed again while we streamed: chain straight into
    // a fetch of the newer stable state instead of waiting for the next
    // certificate to arrive (it may never, once traffic quiesces).
    begin_state_fetch(last_stable_, now, out);
  }
}

void Replica::on_state_request(const net::Envelope& env, Out& out) {
  auto sr = StateRequest::deserialize(env.payload);
  if (!sr || sr->sender >= config_.n || sr->sender == id_) return;
  if (!auth_->check(env, principal::pbft_replica(sr->sender))) return;
  // Serve our latest stable state whenever it would help the requester
  // (sr->seq may trail last_stable_: the requester learns the newer
  // checkpoint from the attached certificate).
  if (last_stable_ == 0 || sr->seq > last_stable_) return;
  const auto it = snapshots_.find(last_stable_);
  if (it == snapshots_.end()) return;

  if (config_.streaming_state) {
    // Announce: chunk 0 plus the checkpoint certificate. The requester
    // adopts the checkpoint, verifies the manifest commitment against it,
    // and fetches the rest in ranges from everyone.
    StateChunkResponse resp;
    resp.seq = last_stable_;
    if (!it->second.fill(0, resp)) return;
    resp.checkpoint_proof = net::unwrap(stable_proof_);
    resp.sender = id_;
    ++xfer_stats_.chunks_served;
    out.push_back(make_signed(MsgType::StateChunkResponse,
                              SharedBytes(resp.serialize()),
                              principal::pbft_replica(sr->sender)));
    return;
  }
  StateResponse resp;
  resp.seq = last_stable_;
  resp.snapshot = it->second.data();
  resp.checkpoint_proof = net::unwrap(stable_proof_);
  resp.sender = id_;
  out.push_back(make_signed(MsgType::StateResponse,
                            SharedBytes(resp.serialize()),
                            principal::pbft_replica(sr->sender)));
}

void Replica::on_state_chunk_request(const net::Envelope& env, Out& out) {
  if (!config_.streaming_state) return;
  auto cr = StateChunkRequest::deserialize(env.payload);
  if (!cr || cr->sender >= config_.n || cr->sender == id_) return;
  if (!auth_->check(env, principal::pbft_replica(cr->sender))) return;
  // Serve any retained snapshot (the latest stable and, for hysteresis,
  // the previous one) — never anything claiming to be ahead of us.
  if (cr->seq > last_stable_) return;
  const auto it = snapshots_.find(cr->seq);
  if (it == snapshots_.end()) return;
  const std::uint64_t chunk_count = it->second.manifest().chunk_count();
  const std::uint64_t end =
      std::min<std::uint64_t>(cr->first_chunk + cr->count, chunk_count);
  for (std::uint64_t index = cr->first_chunk; index < end; ++index) {
    StateChunkResponse resp;
    resp.seq = cr->seq;
    if (!it->second.fill(index, resp)) break;
    resp.sender = id_;
    ++xfer_stats_.chunks_served;
    out.push_back(make_signed(MsgType::StateChunkResponse,
                              SharedBytes(resp.serialize()),
                              principal::pbft_replica(cr->sender)));
  }
}

void Replica::on_state_chunk_response(const net::Envelope& env, Micros now,
                                      Out& out) {
  if (!config_.streaming_state) return;
  auto resp = StateChunkResponse::deserialize(env.payload);
  if (!resp || resp->sender >= config_.n || resp->sender == id_) return;
  if (!auth_->check(env, principal::pbft_replica(resp->sender))) return;

  // Announce adoption: a certificate for a checkpoint ahead of ours lets
  // a rebooted replica (or one whose target went stale) latch on. The
  // proof is validated against the manifest commitment — the usual
  // make_stable path then starts/retargets the fetch.
  if (!resp->checkpoint_proof.empty() && resp->seq > last_stable_ &&
      last_executed_ < resp->seq) {
    std::vector<net::VerifiedEnvelope> proof = verified_checkpoint_proof(
        resp->checkpoint_proof, resp->seq, resp->manifest().commitment());
    if (proof.size() >= config_.quorum()) {
      make_stable(resp->seq, std::move(proof), now, out);
    }
  }

  if (!awaiting_state_ || !fetcher_ || resp->seq != fetcher_->seq()) return;
  switch (fetcher_->on_chunk(*resp, now)) {
    case ChunkFetcher::ChunkResult::Accepted:
      drain_fetcher(now, out);
      break;
    case ChunkFetcher::ChunkResult::Rejected:
      // The fetcher struck the sender; re-plan (possibly re-assigning the
      // poisoned range to another peer right away).
      emit_chunk_requests(fetcher_->pump(now), out);
      break;
    case ChunkFetcher::ChunkResult::Duplicate:
    case ChunkFetcher::ChunkResult::Ignored:
      break;
  }
}

void Replica::on_state_response(const net::Envelope& env, Micros now,
                                Out& out) {
  if (!awaiting_state_) return;
  // The streaming path never installs monolithic snapshots — a Byzantine
  // peer must not be able to bypass chunked verification (and its bounded
  // memory) by volunteering a full StateResponse.
  if (config_.streaming_state) return;
  auto resp = StateResponse::deserialize(env.payload);
  if (!resp || resp->sender >= config_.n) return;
  if (!auth_->check(env, principal::pbft_replica(resp->sender))) return;
  if (resp->seq < awaited_state_seq_ || resp->seq <= last_executed_) return;

  // Validate the checkpoint certificate against the snapshot digest,
  // keeping only the envelopes that actually verify.
  std::vector<net::VerifiedEnvelope> proof = verified_checkpoint_proof(
      resp->checkpoint_proof, resp->seq, snapshot_digest(resp->snapshot));
  if (proof.size() < config_.quorum()) return;

  if (!restore_protocol_snapshot(resp->snapshot)) return;
  last_executed_ = resp->seq;
  if (resp->seq > last_stable_) {
    last_stable_ = resp->seq;
    stable_proof_ = std::move(proof);
  }
  snapshots_[resp->seq] = ChunkedSnapshot(
      std::move(resp->snapshot),
      std::max<std::uint64_t>(config_.state_chunk_bytes, 1));
  log_.erase(log_.begin(), log_.upper_bound(resp->seq));
  awaiting_state_ = false;
  state_request_timer_ = 0;
  state_request_backoff_ = 0;
  logger().info() << "r" << id_ << " state transfer to seq " << resp->seq;
  try_execute(now, out);
}

// ------------------------------------------------------------- view change

void Replica::start_view_change(View target, Micros now, Out& out) {
  if (target <= view_) return;
  in_view_change_ = true;
  pending_view_ = target;
  view_change_timer_ = now + config_.view_change_retry_us;
  batch_deadline_ = 0;

  ViewChange vc;
  vc.new_view = target;
  vc.last_stable = last_stable_;
  vc.checkpoint_proof = net::unwrap(stable_proof_);
  for (const auto& [seq, s] : log_) {
    if (!s.prepared || !s.pre_prepare || seq <= last_stable_) continue;
    PreparedProof proof;
    proof.pre_prepare = s.pre_prepare_env->envelope();
    for (const auto& [sender, vote] : s.prepares) {
      if (vote.first != s.pre_prepare->batch_digest) continue;
      proof.prepares.push_back(vote.second.envelope());
      if (proof.prepares.size() >= config_.prepared_quorum()) break;
    }
    vc.prepared.push_back(std::move(proof));
  }
  vc.sender = id_;

  // Serialize and sign the view change once for broadcast + own record.
  net::Envelope my_vc =
      make_signed(MsgType::ViewChange, SharedBytes(vc.serialize()), 0);
  broadcast_env(my_vc, out);
  view_changes_[target].insert_or_assign(
      id_, auth_->attest_own(std::move(my_vc), *signer_));
  maybe_send_new_view(target, now, out);
}

bool Replica::validate_prepared_proof(const PreparedProof& proof, SeqNum& seq,
                                      View& view, Digest& digest,
                                      Bytes& batch) const {
  auto pp = PrePrepare::deserialize(proof.pre_prepare.payload);
  if (!pp || pp->sender != config_.primary(pp->view) ||
      pp->sender >= config_.n) {
    return false;
  }
  if (!auth_->check(proof.pre_prepare, principal::pbft_replica(pp->sender))) {
    return false;
  }
  if (crypto::sha256(pp->batch) != pp->batch_digest) return false;
  if (!RequestBatch::deserialize(pp->batch)) return false;

  std::map<ReplicaId, bool> distinct;
  for (const auto& pe : proof.prepares) {
    auto prep = Prepare::deserialize(pe.payload);
    if (!prep || prep->view != pp->view || prep->seq != pp->seq ||
        prep->batch_digest != pp->batch_digest ||
        prep->sender == pp->sender || prep->sender >= config_.n) {
      continue;
    }
    if (!auth_->check(pe, principal::pbft_replica(prep->sender))) continue;
    distinct[prep->sender] = true;
  }
  if (distinct.size() < config_.prepared_quorum()) return false;

  seq = pp->seq;
  view = pp->view;
  digest = pp->batch_digest;
  batch = pp->batch;
  return true;
}

std::optional<net::VerifiedEnvelope> Replica::validate_view_change(
    const net::Envelope& env, ViewChange& out_vc) const {
  auto vc = ViewChange::deserialize(env.payload);
  if (!vc || vc->sender >= config_.n) return std::nullopt;
  auto verified = auth_->verify(env, principal::pbft_replica(vc->sender));
  if (!verified) return std::nullopt;
  if (vc->last_stable > 0 &&
      verified_checkpoint_proof(vc->checkpoint_proof, vc->last_stable)
              .size() < config_.quorum()) {
    return std::nullopt;
  }
  for (const auto& proof : vc->prepared) {
    SeqNum seq{};
    View view{};
    Digest digest;
    Bytes batch;
    if (!validate_prepared_proof(proof, seq, view, digest, batch)) {
      return std::nullopt;
    }
    if (seq <= vc->last_stable ||
        seq > vc->last_stable + config_.watermark_window) {
      return std::nullopt;
    }
  }
  out_vc = std::move(*vc);
  return verified;
}

void Replica::on_view_change(const net::Envelope& env, Micros now, Out& out) {
  ViewChange vc;
  auto verified = validate_view_change(env, vc);
  if (!verified) return;
  if (vc.new_view <= view_) return;
  view_changes_[vc.new_view].insert_or_assign(vc.sender,
                                              std::move(*verified));

  // Liveness rule: if f+1 replicas are already ahead, join the smallest
  // such view even without a local timeout.
  if (!in_view_change_ || vc.new_view > pending_view_) {
    std::map<ReplicaId, View> ahead;
    for (const auto& [target, senders] : view_changes_) {
      if (target <= view_) continue;
      for (const auto& [sender, e] : senders) {
        const auto it = ahead.find(sender);
        if (it == ahead.end() || target < it->second) {
          ahead[sender] = target;
        }
      }
    }
    if (ahead.size() >= config_.f + 1) {
      View smallest = 0;
      for (const auto& [sender, target] : ahead) {
        if (smallest == 0 || target < smallest) smallest = target;
      }
      if (!in_view_change_ || smallest > pending_view_) {
        const View base = in_view_change_ ? pending_view_ : view_;
        if (smallest > base) start_view_change(smallest, now, out);
      }
    }
  }
  maybe_send_new_view(vc.new_view, now, out);
}

std::optional<Replica::NewViewPlan> Replica::compute_new_view_plan(
    const std::vector<net::Envelope>& view_change_envs) const {
  NewViewPlan plan;
  struct Best {
    View view;
    Digest digest;
    Bytes batch;
  };
  std::map<SeqNum, Best> best;
  for (const auto& env : view_change_envs) {
    auto vc = ViewChange::deserialize(env.payload);
    if (!vc) return std::nullopt;
    plan.min_s = std::max(plan.min_s, vc->last_stable);
    for (const auto& proof : vc->prepared) {
      auto pp = PrePrepare::deserialize(proof.pre_prepare.payload);
      if (!pp) return std::nullopt;
      plan.max_s = std::max(plan.max_s, pp->seq);
      const auto it = best.find(pp->seq);
      if (it == best.end() || pp->view > it->second.view) {
        best[pp->seq] = Best{pp->view, pp->batch_digest, pp->batch};
      }
    }
  }
  if (plan.max_s < plan.min_s) plan.max_s = plan.min_s;
  const Bytes null_batch = RequestBatch{}.serialize();
  const Digest null_digest = crypto::sha256(null_batch);
  for (SeqNum seq = plan.min_s + 1; seq <= plan.max_s; ++seq) {
    const auto it = best.find(seq);
    if (it != best.end()) {
      plan.proposals[seq] = {it->second.digest, it->second.batch};
    } else {
      plan.proposals[seq] = {null_digest, null_batch};
    }
  }
  return plan;
}

void Replica::maybe_send_new_view(View target, Micros now, Out& out) {
  if (config_.primary(target) != id_ || new_view_sent_[target]) return;
  const auto it = view_changes_.find(target);
  if (it == view_changes_.end() || it->second.size() < config_.quorum()) {
    return;
  }
  std::vector<net::Envelope> vc_envs;
  for (const auto& [sender, env] : it->second) {
    vc_envs.push_back(env.envelope());
    if (vc_envs.size() >= config_.quorum()) break;
  }
  auto plan = compute_new_view_plan(vc_envs);
  if (!plan) return;
  new_view_sent_[target] = true;

  NewView nv;
  nv.new_view = target;
  nv.view_changes = vc_envs;
  for (const auto& [seq, proposal] : plan->proposals) {
    PrePrepare pp;
    pp.view = target;
    pp.seq = seq;
    pp.batch_digest = proposal.first;
    pp.batch = proposal.second;
    pp.sender = id_;
    nv.pre_prepares.push_back(
        make_signed(MsgType::PrePrepare, SharedBytes(pp.serialize()), 0));
  }
  nv.sender = id_;
  broadcast(MsgType::NewView, SharedBytes(nv.serialize()), out);
  logger().info() << "r" << id_ << " sends NewView " << target;
  std::vector<net::VerifiedEnvelope> own_pps;
  own_pps.reserve(nv.pre_prepares.size());
  for (const auto& ppe : nv.pre_prepares) {
    own_pps.push_back(auth_->attest_own(ppe, *signer_));
  }
  enter_view(target, own_pps, plan->min_s, now, out);
}

void Replica::on_new_view(const net::Envelope& env, Micros now, Out& out) {
  auto nv = NewView::deserialize(env.payload);
  if (!nv) return;
  if (nv->new_view <= view_ || nv->sender != config_.primary(nv->new_view)) {
    return;
  }
  if (!auth_->check(env, principal::pbft_replica(nv->sender))) return;
  // Validate the 2f+1 view-change certificate.
  std::map<ReplicaId, bool> distinct;
  for (const auto& vce : nv->view_changes) {
    ViewChange vc;
    if (!validate_view_change(vce, vc)) return;
    if (vc.new_view != nv->new_view) return;
    distinct[vc.sender] = true;
  }
  if (distinct.size() < config_.quorum()) return;

  // Recompute the new-view proposals and insist on an exact match.
  auto plan = compute_new_view_plan(nv->view_changes);
  if (!plan) return;
  if (nv->pre_prepares.size() != plan->proposals.size()) return;
  std::vector<net::VerifiedEnvelope> new_pps;
  new_pps.reserve(nv->pre_prepares.size());
  for (const auto& ppe : nv->pre_prepares) {
    auto pp = PrePrepare::deserialize(ppe.payload);
    if (!pp || pp->view != nv->new_view || pp->sender != nv->sender) return;
    auto verified = auth_->verify(ppe, principal::pbft_replica(pp->sender));
    if (!verified) return;
    const auto it = plan->proposals.find(pp->seq);
    if (it == plan->proposals.end() || it->second.first != pp->batch_digest) {
      return;
    }
    if (crypto::sha256(pp->batch) != pp->batch_digest) return;
    new_pps.push_back(std::move(*verified));
  }

  // Adopt the highest stable checkpoint proven inside the view changes.
  if (plan->min_s > last_stable_) {
    for (const auto& vce : nv->view_changes) {
      auto vc = ViewChange::deserialize(vce.payload);
      if (vc && vc->last_stable == plan->min_s) {
        make_stable(plan->min_s,
                    verified_checkpoint_proof(vc->checkpoint_proof,
                                              plan->min_s),
                    now, out);
        break;
      }
    }
  }
  enter_view(nv->new_view, new_pps, plan->min_s, now, out);
}

std::vector<net::VerifiedEnvelope> Replica::verified_checkpoint_proof(
    const std::vector<net::Envelope>& proof, SeqNum seq,
    std::optional<Digest> expected_digest) const {
  std::vector<net::VerifiedEnvelope> out;
  std::optional<Digest> digest = expected_digest;
  std::map<ReplicaId, bool> seen;
  for (const auto& cpe : proof) {
    auto cp = Checkpoint::deserialize(cpe.payload);
    if (!cp || cp->seq != seq || cp->sender >= config_.n) continue;
    if (digest && cp->state_digest != *digest) continue;
    auto verified = auth_->verify(cpe, principal::pbft_replica(cp->sender));
    if (!verified) continue;
    digest = cp->state_digest;
    if (seen.emplace(cp->sender, true).second) {
      out.push_back(std::move(*verified));
    }
  }
  return out;
}

void Replica::enter_view(
    View v, const std::vector<net::VerifiedEnvelope>& new_pre_prepares,
    SeqNum min_s, Micros now, Out& out) {
  view_ = v;
  in_view_change_ = false;
  pending_view_ = v;
  view_change_timer_ = 0;
  batch_gated_ = false;
  // PBFT restarts request timers when a view installs: every pending
  // request gets a fresh grant measured from the new view's start (or an
  // installed view would instantly re-expire on old arrivals).
  pending_arrivals_.clear();
  for (const auto& [key, req] : pending_requests_) {
    pending_arrivals_.emplace_back(now, key);
  }
  update_request_timer(now);
  log_.clear();
  // Drop view-change bookkeeping for views at or below the one installed —
  // on_view_change ignores targets <= view_, so these entries (including
  // the sent-NewView markers) can never be consulted again.
  view_changes_.erase(view_changes_.begin(),
                      view_changes_.upper_bound(v));
  new_view_sent_.erase(new_view_sent_.begin(), new_view_sent_.upper_bound(v));

  SeqNum max_seq = std::max(min_s, last_stable_);
  for (const auto& ppe : new_pre_prepares) {
    auto pp = PrePrepare::deserialize(ppe.envelope().payload);
    if (!pp) continue;
    max_seq = std::max(max_seq, pp->seq);
    if (pp->seq <= last_stable_) continue;

    Slot& s = slot(pp->seq);
    s.pre_prepare = *pp;
    s.pre_prepare_env = ppe.clone();
    s.batch.reset();  // parsed on execution, from this pre-prepare
    if (!is_primary()) {
      Prepare prep;
      prep.view = v;
      prep.seq = pp->seq;
      prep.batch_digest = pp->batch_digest;
      prep.sender = id_;
      net::Envelope my_prepare =
          make_signed(MsgType::Prepare, SharedBytes(prep.serialize()), 0);
      broadcast_env(my_prepare, out);
      s.prepares.try_emplace(
          id_, prep.batch_digest,
          auth_->attest_own(std::move(my_prepare), *signer_));
    }
    check_prepared(pp->seq, now, out);
  }
  next_seq_ = max_seq;
  logger().info() << "r" << id_ << " entered view " << v << " (min_s=" << min_s
                  << ", next_seq=" << next_seq_ << ")";

  // Re-propose buffered client requests in the new view.
  if (is_primary() && !pending_requests_.empty()) {
    cut_batch(now, out);
  }
}

}  // namespace sbft::pbft
