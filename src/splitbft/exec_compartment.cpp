#include "splitbft/exec_compartment.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "pbft/reply_cache.hpp"
#include "common/serde.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

namespace sbft::splitbft {

namespace {

const Logger& logger() {
  static const Logger log{"splitbft/exec"};
  return log;
}

constexpr std::uint32_t kRequestChannel = channels::kRequest;
constexpr std::uint32_t kReplyChannelBase = channels::kReplyBase;
constexpr std::uint32_t kSessionWrapChannel = channels::kSessionWrap;
constexpr std::uint32_t kStateChannel = channels::kState;
constexpr std::uint32_t kStateChunkChannel = channels::kStateChunk;

}  // namespace

ExecAppFactory plain_app(apps::AppFactory factory) {
  return [factory = std::move(factory)](PersistHook) { return factory(); };
}

ExecCompartment::ExecCompartment(pbft::Config config, ReplicaId self,
                                 std::shared_ptr<const crypto::Signer> signer,
                                 std::shared_ptr<const crypto::Verifier> verifier,
                                 pbft::ClientDirectory clients,
                                 ExecAppFactory app_factory,
                                 crypto::Key32 exec_group_key,
                                 crypto::Key32 dh_secret, crypto::Key32 fs_key,
                                 tee::BlockStore* block_store,
                                 std::shared_ptr<runtime::runner::OrderedRunner>
                                     runner)
    : config_(config),
      self_(self),
      signer_(std::move(signer)),
      auth_(std::move(verifier)),
      clients_(clients),
      exec_group_key_(exec_group_key),
      dh_secret_(dh_secret),
      dh_public_(crypto::x25519_base(dh_secret)),
      checkpoints_(config, self),
      null_batch_digest_(pbft::RequestBatch{}.digest()) {
  runner_ = runner ? std::move(runner)
                   : std::make_shared<runtime::runner::SyncOrderedRunner>();
  if (block_store != nullptr) {
    protected_file_.emplace(fs_key, *block_store);
  }
  // The persist hook seals each record in-enclave, then the ciphertext
  // leaves through the block-store ocall.
  app_ = app_factory([this](ByteView record) {
    if (protected_file_) (void)protected_file_->append(record);
  });
}

bool ExecCompartment::in_window(SeqNum seq) const noexcept {
  return seq > checkpoints_.last_stable() &&
         seq <= checkpoints_.last_stable() + config_.watermark_window;
}

std::vector<net::Envelope> ExecCompartment::deliver(const net::Envelope& env) {
  Out out;
  if (env.type == tag(LocalMsg::ReadBatch)) {
    // The coalesced batch fans its reads across the runner workers — the
    // per-ecall parallelism the broker's coalescing exists to expose.
    on_read_batch(env, out);
    flush_runner(out);
    return out;
  }
  if (env.type == tag(LocalMsg::StateTick)) {
    on_state_tick(env, out);
    flush_runner(out);
    return out;
  }
  switch (static_cast<pbft::MsgType>(env.type)) {
    case pbft::MsgType::PrePrepare:
      on_pre_prepare(env);
      try_execute(out);
      break;
    case pbft::MsgType::ReadRequest:
      on_read_request(env, out);
      break;
    case pbft::MsgType::Commit:
      on_commit(env, out);
      break;
    case pbft::MsgType::Checkpoint:
      on_checkpoint(env, out);
      break;
    case pbft::MsgType::NewView:
      on_new_view(env, out);
      break;
    case pbft::MsgType::AttestRequest:
      on_attest_request(env, out);
      break;
    case pbft::MsgType::SessionInit:
      on_session_init(env, out);
      break;
    case pbft::MsgType::StateRequest:
      on_state_request(env, out);
      break;
    case pbft::MsgType::StateResponse:
      on_state_response(env, out);
      break;
    case pbft::MsgType::StateChunkRequest:
      on_state_chunk_request(env, out);
      break;
    case pbft::MsgType::StateChunkResponse:
      on_state_chunk_response(env, out);
      break;
    default:
      break;
  }
  flush_runner(out);
  return out;
}

void ExecCompartment::flush_runner(Out& out) {
  runner_->drain();
  if (staged_out_.empty()) return;
  out.insert(out.end(), std::make_move_iterator(staged_out_.begin()),
             std::make_move_iterator(staged_out_.end()));
  staged_out_.clear();
}

// ------------------------------------------------------- duplicated inputs

void ExecCompartment::on_pre_prepare(const net::Envelope& env) {
  auto pp = SplitPrePrepare::deserialize(env.payload);
  if (!pp || !pp->has_batch || !in_window(pp->seq)) return;
  if (pp->sender != config_.primary(pp->view) || pp->sender >= config_.n) {
    return;
  }
  const principal::Id signer_id =
      principal::enclave({pp->sender, Compartment::Preparation});
  if (!verify_pre_prepare_envelope(env, *pp, auth_, signer_id)) return;
  if (crypto::sha256(pp->batch) != pp->batch_digest) return;
  log_[pp->seq].batches[pp->batch_digest] = std::move(pp->batch);
}

// --------------------------------------------------------- read fast path

void ExecCompartment::on_read_request(const net::Envelope& env, Out& out) {
  if (!config_.read_path) return;  // client falls back via its timeout
  const auto req = pbft::RequestView::parse(env.payload);
  if (!req) return;
  serve_read(*req, out);
}

void ExecCompartment::on_read_batch(const net::Envelope& env, Out& out) {
  if (!config_.read_path) return;
  const auto batch = pbft::parse_request_batch(env.payload);
  if (!batch) return;
  for (const auto& req : *batch) serve_read(req, out);
}

void ExecCompartment::serve_read(const pbft::RequestView& req, Out& out) {
  (void)out;  // staged replies leave via flush_runner
  // The whole read is parallelizable: authentication, decryption and
  // execute_read against last-executed state, which is stable for the rest
  // of this ecall (ordered mutations only happen on the ecall thread, and
  // the runner drains before deliver() returns). Each read of a coalesced
  // batch lands on a different worker. The captured view aliases the
  // delivered envelope, which outlives that drain.
  const auto session_it = sessions_.find(req.client);
  if (session_it == sessions_.end()) return;  // cannot serve: stay silent
  const crypto::Key32 session = session_it->second;
  const SeqNum exec_seq = last_executed_;
  const bool responder =
      config_.read_responder(req.client, req.timestamp) == self_;
  runner_->submit([this, req, session, exec_seq,
                   responder]() -> runtime::runner::Epilogue {
    const crypto::HmacKey mac_key = clients_.hmac_key(req.client);
    if (!req.mac_valid(mac_key)) return {};
    // Decrypt with the client session; on a corrupted operation the read
    // cannot be served — stay silent, the client's fallback re-submits
    // through ordering.
    const auto op = crypto::aead_open(
        session, crypto::make_nonce(kRequestChannel, req.timestamp), {},
        req.payload);
    if (!op || !app_->is_read_only(*op)) return {};

    // Serve under the current stable (last-executed) state. No sequence
    // number, no client record, no Preparation/Confirmation ecalls.
    const Bytes result = app_->execute_read(*op);
    pbft::ReadReply rr;
    rr.timestamp = req.timestamp;
    rr.client = req.client;
    rr.sender = self_;
    rr.exec_seq = exec_seq;
    // Votes compare plaintext digests (ciphertexts are replica-specific);
    // the digest is keyed so it leaks nothing to the relaying environments.
    rr.result_digest = read_result_digest(session, req.timestamp, result);
    if (responder) {
      rr.has_result = true;
      // Seal under a key derived from (timestamp, state version, replica).
      // A read's plaintext is a pure function of (operation, exec_seq), so
      // re-serving the same (ts, exec_seq) re-seals identical bytes, while
      // a REPLAYED ReadRequest served after a state change derives a
      // different key — the deterministic nonce is never reused with
      // different plaintext, even with an untrusted broker redelivering.
      Writer ctx;
      ctx.u64(req.timestamp);
      ctx.u64(exec_seq);
      ctx.u32(self_);
      const crypto::Key32 seal_key = crypto::derive_key(
          ByteView{session.data(), session.size()}, "read-reply-seal",
          std::move(ctx).take());
      rr.result = crypto::aead_seal(
          seal_key,
          crypto::make_nonce(channels::kReadReplyBase + self_, req.timestamp),
          {}, result);
    }
    const Digest mac = rr.mac(mac_key);
    rr.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

    net::Envelope reply;
    reply.src = signer_->id();
    reply.dst = principal::client(req.client);
    reply.type = pbft::tag(pbft::MsgType::ReadReply);
    reply.payload = rr.serialize();
    return [this, reply = std::move(reply)]() mutable {
      ++reads_served_;
      staged_out_.push_back(std::move(reply));
    };
  });
}

// -------------------------------------------------------------- handler (4)

void ExecCompartment::on_commit(const net::Envelope& env, Out& out) {
  auto commit = pbft::Commit::deserialize(env.payload);
  if (!commit || commit->sender >= config_.n || !in_window(commit->seq)) {
    return;
  }
  if (commit->view < view_) return;  // stale view
  const principal::Id signer_id =
      principal::enclave({commit->sender, Compartment::Confirmation});
  if (!auth_.check(env, signer_id)) return;

  Slot& s = log_[commit->seq];
  // A sender's newer-view commit supersedes its older vote (after a view
  // change every Confirmation enclave re-commits in the new view).
  const auto existing = s.commits.find(commit->sender);
  if (existing == s.commits.end() ||
      commit->view > existing->second.first.first) {
    s.commits[commit->sender] = std::make_pair(
        std::make_pair(commit->view, commit->batch_digest), env);
  }

  if (!s.committed_digest) {
    // A commit certificate requires 2f+1 matching (view, digest) votes.
    std::map<std::pair<View, Digest>, std::uint32_t> counts;
    for (const auto& [sender, vote] : s.commits) counts[vote.first] += 1;
    for (const auto& [key, count] : counts) {
      if (count >= config_.quorum()) {
        s.committed_digest = key.second;
        break;
      }
    }
  }
  try_execute(out);
}

void ExecCompartment::try_execute(Out& out) {
  while (!awaiting_state_) {
    const SeqNum seq = last_executed_ + 1;
    const auto it = log_.find(seq);
    if (it == log_.end() || !it->second.committed_digest) break;
    const Digest digest = *it->second.committed_digest;

    std::vector<pbft::RequestView> batch;  // empty for null requests
    if (digest != null_batch_digest_) {
      const auto batch_it = it->second.batches.find(digest);
      if (batch_it == it->second.batches.end()) {
        // Commit certificate without the body (withheld by the broker):
        // cannot execute yet; state transfer will eventually heal us.
        break;
      }
      auto parsed = pbft::parse_request_batch(batch_it->second);
      if (!parsed) break;
      batch = std::move(*parsed);
    }
    for (const auto& req : batch) execute_request(req, out);
    submit_replies();
    // Deterministic eviction point: every Execution enclave has executed
    // the identical prefix here, so the pruned tables (and checkpoint
    // digests over them) agree.
    gc_client_records();
    executed_digests_[seq] = digest;
    last_executed_ = seq;
    maybe_checkpoint(seq, out);
  }
}

void ExecCompartment::execute_request(const pbft::RequestView& req,
                                      Out& out) {
  (void)out;  // staged replies leave via flush_runner
  // Authenticate (defence in depth — Preparation already checked).
  if (!req.mac_valid(clients_.hmac_key(req.client))) return;
  auto& record = client_records_[req.client];
  if (req.timestamp <= record.last_ts) {
    if (req.timestamp == record.last_ts && record.has_reply) {
      stage_client_reply(req.client, req.timestamp, record);
    }
    return;
  }
  record.last_ts = req.timestamp;

  // Decrypt the operation with the client session key; on any failure the
  // enclave executes a no-op instead (paper §4 step 1). The operation is
  // opened into a buffer reused across requests: it lives only for this
  // call.
  record.no_op = true;
  record.last_result.clear();
  const auto session = sessions_.find(req.client);
  if (session != sessions_.end() &&
      req.payload.size() >= crypto::kAeadTagBytes) {
    operation_.resize(req.payload.size() - crypto::kAeadTagBytes);
    if (crypto::aead_open_into(
            session->second,
            crypto::make_nonce(kRequestChannel, req.timestamp), {},
            req.payload, operation_.data())) {
      record.last_result = app_->execute(operation_);
      record.no_op = false;
      ++executed_requests_;
    }
  }
  record.has_reply = true;
  stage_client_reply(req.client, req.timestamp, record);
}

void ExecCompartment::stage_client_reply(ClientId client, Timestamp ts,
                                         const ClientRecord& record) {
  // The record's inputs are COPIED into the pending unit:
  // gc_client_records may strip its body before the unit runs.
  ReplyUnit& unit = pending_replies_;
  unit.entries.push_back({client, ts, record.no_op,
                          static_cast<std::uint32_t>(unit.results.size()),
                          static_cast<std::uint32_t>(
                              record.last_result.size())});
  append(unit.results, record.last_result);
  // A batch's replies are cut into fixed-size units, so with runner
  // workers they seal in parallel while later requests still execute.
  if (unit.entries.size() >= kRepliesPerUnit) submit_replies();
}

void ExecCompartment::submit_replies() {
  if (pending_replies_.entries.empty()) return;
  // Parallel stage: deterministic AEAD seal + MAC + serialize of every
  // reply in the unit — the dominant per-request cost inside the enclave
  // after execution. It touches only the unit it owns, the session table
  // (not mutated during execution ecalls) and the thread-safe clients_
  // cache.
  ReplyUnit unit = std::exchange(pending_replies_, {});
  // The next unit is sized like this one, so it fills without regrowing.
  pending_replies_.entries.reserve(kRepliesPerUnit);
  pending_replies_.results.reserve(unit.results.size() /
                                   unit.entries.size() * kRepliesPerUnit);
  runner_->submit([this, unit = std::move(unit)]()
                      -> runtime::runner::Epilogue {
    Out replies;
    replies.reserve(unit.entries.size());
    const ByteView results{unit.results};
    for (const auto& e : unit.entries) {
      replies.push_back(reply_envelope(e.client, e.ts, e.no_op,
                                       results.subspan(e.offset, e.size)));
    }
    return [this, replies = std::move(replies)]() mutable {
      staged_out_.insert(staged_out_.end(),
                         std::make_move_iterator(replies.begin()),
                         std::make_move_iterator(replies.end()));
    };
  });
}

net::Envelope ExecCompartment::reply_envelope(ClientId client, Timestamp ts,
                                              bool no_op,
                                              ByteView result) const {
  // The Reply is written once, in its wire layout, into its payload
  // buffer: the header, the result sealed in place, then the client MAC.
  const auto session = sessions_.find(client);
  const bool sealed = !no_op && session != sessions_.end();
  const Bytes marker = sealed ? Bytes{} : no_op_marker();
  const std::size_t result_size =
      sealed ? result.size() + crypto::kAeadTagBytes : marker.size();
  Writer w(pbft::kReplyHeaderBytes + result_size + pbft::kMacFieldBytes);
  pbft::write_reply_header(w, view_, ts, client, self_, result_size);
  std::uint8_t* body = w.extend(result_size);
  if (sealed) {
    crypto::aead_seal_into(session->second,
                           crypto::make_nonce(kReplyChannelBase + self_, ts),
                           {}, result, body);
  } else {
    std::copy(marker.begin(), marker.end(), body);
  }
  pbft::append_mac(w, clients_.hmac_key(client));

  net::Envelope env;
  env.src = signer_->id();
  env.dst = principal::client(client);
  env.type = pbft::tag(pbft::MsgType::Reply);
  env.payload = SharedBytes(std::move(w).take());
  return env;
}

void ExecCompartment::gc_client_records() {
  // Stripping (not erasing) is what keeps the reply AEAD channels sound:
  // a record's (client, last_ts) floor outlives its cached result, so an
  // old timestamp can never re-execute and re-seal different plaintext
  // under the already-used (kReplyBase + self, ts) nonce.
  pbft::strip_reply_cache(client_records_, config_.client_record_cap);
}

// -------------------------------------------------------------- handler (8)

Bytes ExecCompartment::exec_snapshot() const {
  // Only deterministic, order-induced state enters the snapshot (and thus
  // the checkpoint digest): application state + client table with plaintext
  // results. Session keys are deliberately excluded — their installation is
  // not ordered by consensus, so including them would make checkpoint
  // digests of correct replicas race with SessionInit delivery.
  Writer w;
  w.bytes(app_->snapshot());
  std::map<ClientId, const ClientRecord*> records;
  for (const auto& [c, r] : client_records_) records.emplace(c, &r);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& [c, r] : records) {
    w.u32(c);
    w.u64(r->last_ts);
    w.bytes(r->last_result);
    w.boolean(r->no_op);
    w.boolean(r->has_reply);
  }
  return std::move(w).take();
}

bool ExecCompartment::parse_client_records(
    Reader& r, std::unordered_map<ClientId, ClientRecord>& records) const {
  const std::uint32_t n_records = r.u32();
  if (r.failed() || n_records > 1'000'000) return false;
  for (std::uint32_t i = 0; i < n_records; ++i) {
    const ClientId c = r.u32();
    ClientRecord rec;
    rec.last_ts = r.u64();
    rec.last_result = r.bytes();
    rec.no_op = r.boolean();
    rec.has_reply = r.boolean();
    records.emplace(c, std::move(rec));
  }
  return r.done();
}

bool ExecCompartment::restore_exec_snapshot(ByteView data) {
  Reader r(data);
  const Bytes app_snapshot = r.bytes();
  if (r.failed()) return false;
  std::unordered_map<ClientId, ClientRecord> records;
  if (!parse_client_records(r, records)) return false;
  if (!app_->restore(app_snapshot)) return false;
  client_records_ = std::move(records);
  return true;
}

void ExecCompartment::maybe_checkpoint(SeqNum seq, Out& out) {
  if (config_.checkpoint_interval == 0 ||
      seq % config_.checkpoint_interval != 0) {
    return;
  }
  // Chunk + tree once; the certificate digest (the manifest commitment,
  // see pbft/state_transfer.hpp) and every future chunk response come from
  // the same ChunkedSnapshot.
  pbft::ChunkedSnapshot snapshot(
      exec_snapshot(), std::max<std::uint64_t>(config_.state_chunk_bytes, 1));
  pbft::Checkpoint cp;
  cp.seq = seq;
  cp.state_digest = snapshot.commitment();
  cp.sender = self_;
  snapshots_[seq] = std::move(snapshot);

  // To peer Execution enclaves (their brokers fan out to all three
  // compartments) and to this replica's own Preparation/Confirmation.
  // Serialized and signed once; every copy below shares the frames.
  net::Envelope env = make_signed_proto(
      *signer_, pbft::tag(pbft::MsgType::Checkpoint),
      SharedBytes(cp.serialize()));
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == self_) continue;
    env.dst = principal::enclave({r, Compartment::Execution});
    out.push_back(env);
  }
  for (const Compartment c :
       {Compartment::Preparation, Compartment::Confirmation}) {
    env.dst = principal::enclave({self_, c});
    out.push_back(env);
  }
  if (auto stable = checkpoints_.add_own(env, cp, auth_, *signer_)) {
    garbage_collect(stable->seq);
  }
}

void ExecCompartment::on_checkpoint(const net::Envelope& env, Out& out) {
  if (auto stable = checkpoints_.add(env, auth_)) {
    garbage_collect(stable->seq);
    if (last_executed_ < stable->seq) request_state(stable->seq, out);
  }
}

void ExecCompartment::garbage_collect(SeqNum stable) {
  log_.erase(log_.begin(), log_.upper_bound(stable));
  // Retain the PREVIOUS stable snapshot alongside the new one: a peer
  // mid-fetch of it gets one checkpoint interval of hysteresis to finish
  // instead of restarting from chunk 0 every time the group checkpoints.
  if (stable > gc_stable_) {
    retain_floor_ = gc_stable_;
    gc_stable_ = stable;
  }
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    it = it->first < retain_floor_ ? snapshots_.erase(it) : std::next(it);
  }
}

// ---------------------------------------------------------- state transfer

void ExecCompartment::request_state(SeqNum seq, Out& out) {
  if (awaiting_state_) {
    // Retarget a streaming fetch only once its target ages out of the
    // peers' retention window (older than the previous stable seq) — or
    // when it can now start, the announce having been adopted. Inside the
    // window the fetch completes and finish_streaming_restore chains the
    // follow-up; restarting on every new checkpoint would livelock
    // whenever a transfer outlasts one checkpoint period.
    const bool retarget =
        config_.streaming_state &&
        (!fetcher_ || fetcher_->seq() < retain_floor_);
    if (!retarget) return;
  }
  begin_state_fetch(seq, out);
}

void ExecCompartment::begin_state_fetch(SeqNum seq, Out& out) {
  awaiting_state_ = true;
  awaited_state_seq_ = seq;
  if (!config_.streaming_state) {
    state_request_backoff_ = 0;
    send_state_request(out);
    return;
  }
  // The expected manifest commitment comes from the adopted stable
  // certificate — 2f+1 Execution signatures strong before any peer is
  // consulted. Without one (reboot from nothing), announce via
  // StateRequest; the chunk-0 response carries the certificate.
  Digest commitment;
  if (checkpoints_.last_stable() == seq) {
    const auto proof = checkpoints_.stable_proof();
    if (!proof.empty()) {
      if (const auto cp = pbft::Checkpoint::deserialize(proof.front().payload)) {
        commitment = cp->state_digest;
      }
    }
  }
  if (commitment.is_zero()) {
    state_request_backoff_ = 0;
    send_state_request(out);
    return;
  }
  if (fetcher_) accumulate_fetcher_stats();
  pbft::ChunkFetcher::Config fc;
  fc.n = config_.n;
  fc.self = self_;
  fc.chunks_per_request = config_.state_chunks_per_request;
  fc.inflight_max_bytes = config_.state_inflight_max_bytes;
  fc.chunk_timeout_us = config_.state_chunk_timeout_us;
  fetcher_ = std::make_unique<pbft::ChunkFetcher>(fc, seq, commitment, now_);
  applier_ = std::make_unique<pbft::SnapshotApplier>(app_.get());
  state_request_deadline_ = 0;
  logger().info() << "exec@r" << self_ << " streaming state fetch toward "
                  << seq;
  emit_chunk_requests(fetcher_->pump(now_), out);
}

void ExecCompartment::send_state_request(Out& out) {
  pbft::StateRequest sr;
  sr.seq = awaited_state_seq_;
  sr.sender = self_;
  // Serialize + sign the state request once; copies share the frames.
  const net::Envelope proto = make_signed_proto(
      *signer_, pbft::tag(pbft::MsgType::StateRequest),
      SharedBytes(sr.serialize()));
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == self_) continue;
    net::Envelope env = proto;
    env.dst = principal::enclave({r, Compartment::Execution});
    out.push_back(std::move(env));
  }
  ++xfer_stats_.state_requests_sent;
  // Exponential backoff between re-broadcasts: ask again while stuck, but
  // never storm the group.
  const Micros min_b =
      std::max<Micros>(config_.state_request_backoff_min_us, 1);
  state_request_backoff_ =
      state_request_backoff_ == 0
          ? min_b
          : std::min(state_request_backoff_ * 2,
                     std::max<Micros>(config_.state_request_backoff_max_us,
                                      min_b));
  state_request_deadline_ = now_ + state_request_backoff_;
}

void ExecCompartment::emit_chunk_requests(
    const std::vector<pbft::ChunkFetcher::Request>& requests, Out& out) {
  for (const auto& req : requests) {
    pbft::StateChunkRequest cr;
    cr.seq = fetcher_->seq();
    cr.first_chunk = req.first_chunk;
    cr.count = req.count;
    cr.sender = self_;
    net::Envelope env;
    env.src = signer_->id();
    env.dst = principal::enclave({req.peer, Compartment::Execution});
    env.type = pbft::tag(pbft::MsgType::StateChunkRequest);
    env.payload = cr.serialize();
    net::sign_envelope(env, *signer_);
    out.push_back(std::move(env));
    ++xfer_stats_.chunk_requests_sent;
  }
}

void ExecCompartment::accumulate_fetcher_stats() {
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

pbft::StateTransferStats ExecCompartment::state_transfer_stats() const {
  pbft::StateTransferStats stats = xfer_stats_;
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

void ExecCompartment::abandon_transfer() {
  accumulate_fetcher_stats();
  if (applier_) applier_->abort();
  fetcher_.reset();
  applier_.reset();
  // Still behind: fall back to a fresh announce (rate-limited; fires on
  // the next StateTick).
  state_request_backoff_ = 0;
  state_request_deadline_ = now_ + 1;
}

void ExecCompartment::drain_fetcher(Out& out) {
  for (Bytes& chunk : fetcher_->take_ready()) {
    if (!applier_->feed(chunk)) {
      logger().info() << "exec@r" << self_
                      << " snapshot apply failed, restarting";
      abandon_transfer();
      return;
    }
  }
  if (fetcher_->complete()) {
    finish_streaming_restore(out);
  } else {
    emit_chunk_requests(fetcher_->pump(now_), out);
  }
}

void ExecCompartment::finish_streaming_restore(Out& out) {
  const SeqNum seq = fetcher_->seq();
  // Validate the protocol tail BEFORE committing the app: a malformed
  // tail must not leave the app restored but the client table stale.
  std::unordered_map<ClientId, ClientRecord> records;
  Reader tail(applier_->tail());
  if (!applier_->app_complete() || !parse_client_records(tail, records) ||
      !applier_->finish()) {
    logger().info() << "exec@r" << self_ << " streaming restore failed at "
                    << seq;
    abandon_transfer();
    return;
  }
  client_records_ = std::move(records);
  last_executed_ = seq;
  garbage_collect(seq);
  awaiting_state_ = false;
  // Deliberately NOT materializing snapshots_[seq]: the transfer streamed
  // into the app precisely to avoid snapshot-sized buffers; this enclave
  // serves peers from its next own checkpoint.
  accumulate_fetcher_stats();
  ++xfer_stats_.transfers_completed;
  fetcher_.reset();
  applier_.reset();
  state_request_deadline_ = 0;
  logger().info() << "exec@r" << self_ << " streaming state transfer to "
                  << seq;
  try_execute(out);
  if (last_executed_ < checkpoints_.last_stable()) {
    // The group checkpointed again while we streamed: chain straight into
    // a fetch of the newer stable state instead of waiting for the next
    // certificate to arrive (it may never, once traffic quiesces).
    begin_state_fetch(checkpoints_.last_stable(), out);
  }
}

void ExecCompartment::on_state_tick(const net::Envelope& env, Out& out) {
  Reader r(env.payload);
  const Micros now = r.u64();
  if (r.failed()) return;
  now_ = std::max(now_, now);
  if (!boot_probe_sent_) {
    boot_probe_sent_ = true;
    // Rebooted with no state: probe for the group's stable checkpoint.
    // Peers still at seq 0 ignore it; a peer ahead answers with its
    // certificate (the sealed chunk-0 announce) and the fetch starts.
    if (checkpoints_.last_stable() == 0 && last_executed_ == 0 &&
        !awaiting_state_) {
      send_state_request(out);
    }
  }
  if (!awaiting_state_) return;
  if (fetcher_) {
    emit_chunk_requests(fetcher_->pump(now_), out);
  } else if (state_request_deadline_ != 0 && now_ >= state_request_deadline_) {
    send_state_request(out);
  }
}

crypto::Key32 ExecCompartment::chunk_seal_key(SeqNum seq) const {
  Bytes ctx(8);
  for (int i = 0; i < 8; ++i) {
    ctx[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return crypto::derive_key(
      ByteView{exec_group_key_.data(), exec_group_key_.size()},
      "state-chunk-seal", ctx);
}

Bytes ExecCompartment::seal_chunk(SeqNum seq, std::uint64_t index,
                                  ByteView chunk) const {
  return crypto::aead_seal(chunk_seal_key(seq),
                           crypto::make_nonce(kStateChunkChannel, index), {},
                           chunk);
}

std::optional<Bytes> ExecCompartment::open_chunk(SeqNum seq,
                                                 std::uint64_t index,
                                                 ByteView sealed) const {
  return crypto::aead_open(chunk_seal_key(seq),
                           crypto::make_nonce(kStateChunkChannel, index), {},
                           sealed);
}

void ExecCompartment::on_state_request(const net::Envelope& env, Out& out) {
  auto sr = pbft::StateRequest::deserialize(env.payload);
  if (!sr || sr->sender >= config_.n || sr->sender == self_) return;
  const principal::Id signer_id =
      principal::enclave({sr->sender, Compartment::Execution});
  if (!auth_.check(env, signer_id)) return;
  // Serve our latest stable state whenever it would help the requester
  // (sr->seq may trail it: the requester learns the newer checkpoint from
  // the attached certificate).
  const SeqNum stable = checkpoints_.last_stable();
  if (stable == 0 || sr->seq > stable) return;
  const auto it = snapshots_.find(stable);
  if (it == snapshots_.end()) return;

  if (config_.streaming_state) {
    // Announce: sealed chunk 0 plus the checkpoint certificate. The
    // requester adopts the checkpoint, verifies the manifest commitment
    // against it, and fetches the rest in ranges from everyone.
    pbft::StateChunkResponse resp;
    resp.seq = stable;
    if (!it->second.fill(0, resp)) return;
    resp.chunk = seal_chunk(stable, 0, it->second.chunk_view(0));
    resp.checkpoint_proof = checkpoints_.stable_proof();
    resp.sender = self_;
    ++xfer_stats_.chunks_served;
    net::Envelope out_env;
    out_env.src = signer_->id();
    out_env.dst = principal::enclave({sr->sender, Compartment::Execution});
    out_env.type = pbft::tag(pbft::MsgType::StateChunkResponse);
    out_env.payload = resp.serialize();
    net::sign_envelope(out_env, *signer_);
    out.push_back(std::move(out_env));
    return;
  }
  // Monolithic path: snapshots hold confidential state (app data, client
  // results), so encrypt under the execution-compartment group key before
  // it crosses the untrusted environment.
  pbft::StateResponse resp;
  resp.seq = stable;
  resp.snapshot = crypto::aead_seal(
      exec_group_key_, crypto::make_nonce(kStateChannel, stable), {},
      it->second.data());
  resp.checkpoint_proof = checkpoints_.stable_proof();
  resp.sender = self_;

  net::Envelope out_env;
  out_env.src = signer_->id();
  out_env.dst = principal::enclave({sr->sender, Compartment::Execution});
  out_env.type = pbft::tag(pbft::MsgType::StateResponse);
  out_env.payload = resp.serialize();
  net::sign_envelope(out_env, *signer_);
  out.push_back(std::move(out_env));
}

void ExecCompartment::on_state_chunk_request(const net::Envelope& env,
                                             Out& out) {
  if (!config_.streaming_state) return;
  auto cr = pbft::StateChunkRequest::deserialize(env.payload);
  if (!cr || cr->sender >= config_.n || cr->sender == self_) return;
  const principal::Id signer_id =
      principal::enclave({cr->sender, Compartment::Execution});
  if (!auth_.check(env, signer_id)) return;
  // Serve any retained snapshot (the latest stable and, for hysteresis,
  // the previous one) — never anything claiming to be ahead of us.
  if (cr->seq > checkpoints_.last_stable()) return;
  const auto it = snapshots_.find(cr->seq);
  if (it == snapshots_.end()) return;
  const std::uint64_t chunk_count = it->second.manifest().chunk_count();
  const std::uint64_t end =
      std::min<std::uint64_t>(cr->first_chunk + cr->count, chunk_count);
  for (std::uint64_t index = cr->first_chunk; index < end; ++index) {
    pbft::StateChunkResponse resp;
    resp.seq = cr->seq;
    if (!it->second.fill(index, resp)) break;
    resp.chunk = seal_chunk(cr->seq, index, it->second.chunk_view(index));
    resp.sender = self_;
    ++xfer_stats_.chunks_served;
    net::Envelope out_env;
    out_env.src = signer_->id();
    out_env.dst = principal::enclave({cr->sender, Compartment::Execution});
    out_env.type = pbft::tag(pbft::MsgType::StateChunkResponse);
    out_env.payload = resp.serialize();
    net::sign_envelope(out_env, *signer_);
    out.push_back(std::move(out_env));
  }
}

void ExecCompartment::on_state_chunk_response(const net::Envelope& env,
                                              Out& out) {
  if (!config_.streaming_state) return;
  auto resp = pbft::StateChunkResponse::deserialize(env.payload);
  if (!resp || resp->sender >= config_.n || resp->sender == self_) return;
  const principal::Id signer_id =
      principal::enclave({resp->sender, Compartment::Execution});
  if (!auth_.check(env, signer_id)) return;

  // Announce adoption: a certificate for a checkpoint ahead of ours lets
  // a rebooted enclave latch on. The proof is validated against the
  // manifest commitment before anything else is believed.
  if (!resp->checkpoint_proof.empty() &&
      resp->seq > checkpoints_.last_stable() && last_executed_ < resp->seq) {
    if (auto proof =
            verify_checkpoint_proof(resp->checkpoint_proof, resp->seq,
                                    resp->manifest().commitment(), config_,
                                    auth_)) {
      checkpoints_.adopt(resp->seq, std::move(*proof));
      garbage_collect(resp->seq);
      request_state(resp->seq, out);
    }
  }

  if (!awaiting_state_ || !fetcher_ || resp->seq != fetcher_->seq()) return;
  // Unseal before Merkle verification (the tree commits to plaintext). A
  // failed unseal clears the chunk so the fetcher rejects it and strikes
  // the sender, exactly like a forged chunk.
  if (auto opened = open_chunk(resp->seq, resp->index, resp->chunk)) {
    resp->chunk = std::move(*opened);
  } else {
    resp->chunk.clear();
  }
  switch (fetcher_->on_chunk(*resp, now_)) {
    case pbft::ChunkFetcher::ChunkResult::Accepted:
      drain_fetcher(out);
      break;
    case pbft::ChunkFetcher::ChunkResult::Rejected:
      emit_chunk_requests(fetcher_->pump(now_), out);
      break;
    case pbft::ChunkFetcher::ChunkResult::Duplicate:
    case pbft::ChunkFetcher::ChunkResult::Ignored:
      break;
  }
}

void ExecCompartment::on_state_response(const net::Envelope& env, Out& out) {
  if (!awaiting_state_) return;
  // The streaming path never installs monolithic snapshots — a Byzantine
  // peer must not bypass chunked verification (and its bounded memory) by
  // volunteering a full StateResponse.
  if (config_.streaming_state) return;
  auto resp = pbft::StateResponse::deserialize(env.payload);
  if (!resp || resp->sender >= config_.n) return;
  const principal::Id signer_id =
      principal::enclave({resp->sender, Compartment::Execution});
  if (!auth_.check(env, signer_id)) return;
  if (resp->seq < awaited_state_seq_ || resp->seq <= last_executed_) return;

  const auto snapshot = crypto::aead_open(
      exec_group_key_, crypto::make_nonce(kStateChannel, resp->seq), {},
      resp->snapshot);
  if (!snapshot) return;
  const Digest digest =
      pbft::snapshot_commitment(*snapshot, config_.state_chunk_bytes);
  auto proof = verify_checkpoint_proof(resp->checkpoint_proof, resp->seq,
                                       digest, config_, auth_);
  if (!proof) return;
  if (!restore_exec_snapshot(*snapshot)) return;
  last_executed_ = resp->seq;
  checkpoints_.adopt(resp->seq, std::move(*proof));
  snapshots_[resp->seq] = pbft::ChunkedSnapshot(
      *snapshot, std::max<std::uint64_t>(config_.state_chunk_bytes, 1));
  garbage_collect(resp->seq);
  awaiting_state_ = false;
  state_request_deadline_ = 0;
  state_request_backoff_ = 0;
  logger().info() << "exec@r" << self_ << " state transfer to " << resp->seq;
  try_execute(out);
}

// ------------------------------------------------------------- view change

void ExecCompartment::on_new_view(const net::Envelope& env, Out& out) {
  auto nv = pbft::NewView::deserialize(env.payload);
  if (!nv || nv->new_view <= view_) return;
  if (nv->sender != config_.primary(nv->new_view)) return;
  const principal::Id nv_signer =
      principal::enclave({nv->sender, Compartment::Preparation});
  if (!auth_.check(env, nv_signer)) return;

  // Execution validates/applies only the checkpoint part (paper §4) and
  // adopts the new view number.
  for (const auto& vce : nv->view_changes) {
    auto vc = pbft::ViewChange::deserialize(vce.payload);
    if (!vc || vc->last_stable <= checkpoints_.last_stable()) continue;
    if (auto proof =
            verify_checkpoint_proof(vc->checkpoint_proof, vc->last_stable,
                                    std::nullopt, config_, auth_)) {
      checkpoints_.adopt(vc->last_stable, std::move(*proof));
      garbage_collect(vc->last_stable);
      if (last_executed_ < vc->last_stable) {
        request_state(vc->last_stable, out);
      }
    }
  }
  view_ = nv->new_view;
  // Also pick up any full batches the new primary re-attached.
  for (const auto& ppe : nv->pre_prepares) on_pre_prepare(ppe);
  try_execute(out);
}

// ----------------------------------------------------- attestation/session

void ExecCompartment::on_attest_request(const net::Envelope& env, Out& out) {
  auto req = AttestRequest::deserialize(env.payload);
  if (!req || !quote_fn_) return;

  ReportData rd;
  rd.signing_principal = signer_->id();
  rd.dh_public = dh_public_;
  rd.nonce = req->nonce;

  AttestReport report;
  report.replica = self_;
  report.compartment = Compartment::Execution;
  report.quote = quote_fn_(rd.serialize());

  net::Envelope reply;
  reply.src = signer_->id();
  reply.dst = principal::client(req->client);
  reply.type = pbft::tag(pbft::MsgType::AttestReport);
  reply.payload = report.serialize();
  out.push_back(std::move(reply));
}

void ExecCompartment::on_session_init(const net::Envelope& env, Out& out) {
  auto init = SessionInit::deserialize(env.payload);
  if (!init) return;
  if (!crypto::hmac_verify(clients_.hmac_key(init->client),
                           init->auth_input(), init->auth)) {
    return;
  }
  const crypto::Key32 shared =
      crypto::x25519(dh_secret_, init->client_dh_public);
  const crypto::Key32 wrap_key = crypto::derive_key(
      ByteView{shared.data(), shared.size()}, "session-wrap");
  const auto session_key = crypto::aead_open(
      wrap_key, crypto::make_nonce(kSessionWrapChannel, init->client), {},
      init->sealed_session_key);
  if (!session_key || session_key->size() != 32) return;

  crypto::Key32 key{};
  std::copy(session_key->begin(), session_key->end(), key.begin());
  sessions_[init->client] = key;

  SessionAck ack;
  ack.client = init->client;
  ack.replica = self_;
  const Digest mac = crypto::hmac_sha256(ByteView{key.data(), key.size()},
                                         ack.auth_input());
  ack.auth = Bytes(mac.bytes.begin(), mac.bytes.end());

  net::Envelope reply;
  reply.src = signer_->id();
  reply.dst = principal::client(init->client);
  reply.type = pbft::tag(pbft::MsgType::SessionAck);
  reply.payload = ack.serialize();
  out.push_back(std::move(reply));
}

}  // namespace sbft::splitbft
