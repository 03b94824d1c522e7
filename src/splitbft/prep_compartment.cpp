#include "splitbft/prep_compartment.hpp"

#include "common/logging.hpp"
#include "crypto/sha256.hpp"

namespace sbft::splitbft {

namespace {
const Logger& logger() {
  static const Logger log{"splitbft/prep"};
  return log;
}
}  // namespace

PrepCompartment::PrepCompartment(pbft::Config config, ReplicaId self,
                                 std::shared_ptr<const crypto::Signer> signer,
                                 std::shared_ptr<const crypto::Verifier> verifier,
                                 pbft::ClientDirectory clients,
                                 Bytes attestation_context)
    : config_(config),
      self_(self),
      signer_(std::move(signer)),
      auth_(std::move(verifier)),
      clients_(clients),
      attestation_context_(std::move(attestation_context)),
      checkpoints_(config, self) {}

bool PrepCompartment::in_window(SeqNum seq) const noexcept {
  return seq > checkpoints_.last_stable() &&
         seq <= checkpoints_.last_stable() + config_.watermark_window;
}

bool PrepCompartment::pipeline_open() const noexcept {
  return next_seq_ + 1 <=
         checkpoints_.last_stable() + config_.pipeline_window();
}

std::vector<net::Envelope> PrepCompartment::deliver(const net::Envelope& env) {
  Out out;
  if (env.type == tag(LocalMsg::Batch)) {
    on_local_batch(env, out);
  } else {
    switch (static_cast<pbft::MsgType>(env.type)) {
      case pbft::MsgType::PrePrepare:
        on_pre_prepare(env, out);
        break;
      case pbft::MsgType::ViewChange:
        on_view_change(env, out);
        break;
      case pbft::MsgType::NewView:
        on_new_view(env, out);
        break;
      case pbft::MsgType::Checkpoint:
        on_checkpoint(env, out);
        break;
      case pbft::MsgType::AttestRequest:
        on_attest_request(env, out);
        break;
      default:
        break;
    }
  }
  return out;
}

// -------------------------------------------------------------- handler (1)

void PrepCompartment::on_local_batch(const net::Envelope& env, Out& out) {
  if (!is_primary()) return;  // broker misrouted; liveness-only event
  const auto batch = pbft::parse_request_batch(env.payload);
  if (!batch || batch->empty()) return;

  // Authenticate every client request before ordering (paper §4 step 2).
  for (const auto& req : *batch) {
    if (!req.mac_valid(clients_.hmac_key(req.client))) {
      return;  // reject the whole (untrusted broker-built) batch
    }
  }
  // A batch that parses is canonical (its bytes are RequestBatch::serialize
  // of its requests), so it is proposed as received.
  Bytes batch_bytes = env.payload.to_bytes();
  if (!pipeline_open()) {
    // Pipeline at depth (or watermark window full): hold the authenticated
    // batch until a checkpoint certificate frees a slot, instead of
    // dropping it and waiting for the broker's suspicion timer to fire.
    constexpr std::size_t kMaxDeferred = 128;
    if (deferred_.size() < kMaxDeferred) {
      deferred_.push_back(std::move(batch_bytes));
    }
    return;
  }
  propose_batch(std::move(batch_bytes), out);
}

void PrepCompartment::propose_batch(Bytes batch_bytes, Out& out) {
  SplitPrePrepare pp;
  pp.view = view_;
  pp.seq = ++next_seq_;
  pp.batch = std::move(batch_bytes);
  pp.batch_digest = crypto::sha256(pp.batch);
  pp.sender = self_;
  pp.has_batch = true;

  // Full copy to every backup Preparation enclave (their broker duplicates
  // to Confirmation/Execution); own Confirmation gets the stripped header,
  // own Execution the full body. The signature covers only the header, so
  // it is produced ONCE and shared by every copy — including the stripped
  // one — and all full copies share one payload frame.
  net::Envelope full = make_pre_prepare_envelope(
      pp, *signer_, principal::enclave({self_, Compartment::Execution}));
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == self_) continue;
    net::Envelope copy = full;
    copy.dst = principal::enclave({r, Compartment::Preparation});
    out.push_back(std::move(copy));
  }
  net::Envelope stripped = full;  // header signature still valid
  if (auto header = SplitPrePrepare::strip_payload(full.payload)) {
    stripped.payload = SharedBytes(std::move(*header));
  }
  stripped.dst = principal::enclave({self_, Compartment::Confirmation});
  out.push_back(std::move(stripped));
  out.push_back(std::move(full));
  const SeqNum seq = pp.seq;
  log_[seq] = std::move(pp);
}

// -------------------------------------------------------------- handler (2)

void PrepCompartment::on_pre_prepare(const net::Envelope& env, Out& out) {
  auto pp = SplitPrePrepare::deserialize(env.payload);
  if (!pp || !pp->has_batch) return;
  if (pp->view != view_ || pp->sender != config_.primary(view_) ||
      pp->sender == self_ || !in_window(pp->seq)) {
    return;
  }
  const principal::Id signer_id =
      principal::enclave({pp->sender, Compartment::Preparation});
  if (!verify_pre_prepare_envelope(env, *pp, auth_, signer_id)) return;
  if (crypto::sha256(pp->batch) != pp->batch_digest) return;

  const auto batch = pbft::parse_request_batch(pp->batch);
  if (!batch) return;
  for (const auto& req : *batch) {
    if (!req.mac_valid(clients_.hmac_key(req.client))) {
      return;  // primary smuggled an unauthenticated request
    }
  }

  const auto existing = log_.find(pp->seq);
  if (existing != log_.end()) {
    // Conflicting assignment from a byzantine primary: keep the first.
    if (existing->second.batch_digest != pp->batch_digest) return;
    return;  // duplicate
  }
  emit_prepare(*pp, out);
  const SeqNum seq = pp->seq;
  log_[seq] = std::move(*pp);
}

void PrepCompartment::emit_prepare(const SplitPrePrepare& pp, Out& out) {
  pbft::Prepare prep;
  prep.view = pp.view;
  prep.seq = pp.seq;
  prep.batch_digest = pp.batch_digest;
  prep.sender = self_;
  // Serialize and sign once; every Confirmation enclave's copy shares the
  // same payload/signature frames.
  const net::Envelope proto = make_signed_proto(
      *signer_, pbft::tag(pbft::MsgType::Prepare),
      SharedBytes(prep.serialize()));
  for (ReplicaId r = 0; r < config_.n; ++r) {
    net::Envelope env = proto;
    env.dst = principal::enclave({r, Compartment::Confirmation});
    out.push_back(std::move(env));
  }
}

// -------------------------------------------------------------- handler (9)

void PrepCompartment::on_checkpoint(const net::Envelope& env, Out& out) {
  if (auto stable = checkpoints_.add(env, auth_)) {
    garbage_collect(stable->seq);
    release_deferred(out);
  }
}

void PrepCompartment::garbage_collect(SeqNum stable) {
  log_.erase(log_.begin(), log_.upper_bound(stable));
  if (next_seq_ < stable) next_seq_ = stable;
}

void PrepCompartment::release_deferred(Out& out) {
  // A checkpoint certificate advanced the stable point: propose deferred
  // batches into the freed pipeline slots (primary only; backups never
  // defer). Never called mid-view-transition — a deferred batch must not
  // be proposed under a view the enclave is about to leave.
  while (is_primary() && !deferred_.empty() && pipeline_open()) {
    Bytes batch_bytes = std::move(deferred_.front());
    deferred_.pop_front();
    propose_batch(std::move(batch_bytes), out);
  }
}

// ---------------------------------------------------------- view change (6)

bool PrepCompartment::validate_prepared_proof(const pbft::PreparedProof& proof,
                                              SeqNum& seq, View& view,
                                              Digest& digest) const {
  auto pp = SplitPrePrepare::deserialize(proof.pre_prepare.payload);
  if (!pp || pp->sender != config_.primary(pp->view) ||
      pp->sender >= config_.n) {
    return false;
  }
  const principal::Id pp_signer =
      principal::enclave({pp->sender, Compartment::Preparation});
  if (!verify_pre_prepare_envelope(proof.pre_prepare, *pp, auth_,
                                   pp_signer)) {
    return false;
  }
  std::map<ReplicaId, bool> distinct;
  for (const auto& pe : proof.prepares) {
    auto prep = pbft::Prepare::deserialize(pe.payload);
    if (!prep || prep->view != pp->view || prep->seq != pp->seq ||
        prep->batch_digest != pp->batch_digest ||
        prep->sender == pp->sender || prep->sender >= config_.n) {
      continue;
    }
    const principal::Id p_signer =
        principal::enclave({prep->sender, Compartment::Preparation});
    if (!auth_.check(pe, p_signer)) continue;
    distinct[prep->sender] = true;
  }
  if (distinct.size() < config_.prepared_quorum()) return false;
  seq = pp->seq;
  view = pp->view;
  digest = pp->batch_digest;
  return true;
}

bool PrepCompartment::validate_view_change(const net::Envelope& env,
                                           pbft::ViewChange& out_vc) const {
  auto vc = pbft::ViewChange::deserialize(env.payload);
  if (!vc || vc->sender >= config_.n) return false;
  const principal::Id vc_signer =
      principal::enclave({vc->sender, Compartment::Confirmation});
  if (!auth_.check(env, vc_signer)) return false;
  if (vc->last_stable > 0 &&
      !verify_checkpoint_proof(vc->checkpoint_proof, vc->last_stable,
                               std::nullopt, config_, auth_)) {
    return false;
  }
  for (const auto& proof : vc->prepared) {
    SeqNum seq{};
    View view{};
    Digest digest;
    if (!validate_prepared_proof(proof, seq, view, digest)) return false;
    if (seq <= vc->last_stable ||
        seq > vc->last_stable + config_.watermark_window) {
      return false;
    }
  }
  out_vc = std::move(*vc);
  return true;
}

void PrepCompartment::on_view_change(const net::Envelope& env, Out& out) {
  pbft::ViewChange vc;
  if (!validate_view_change(env, vc)) return;
  if (vc.new_view <= view_) return;
  view_changes_[vc.new_view][vc.sender] = env;
  maybe_send_new_view(vc.new_view, out);
}

std::optional<PrepCompartment::Plan> PrepCompartment::compute_plan(
    const std::vector<net::Envelope>& vc_envs) const {
  Plan plan;
  struct Best {
    View view;
    Digest digest;
  };
  std::map<SeqNum, Best> best;
  for (const auto& env : vc_envs) {
    auto vc = pbft::ViewChange::deserialize(env.payload);
    if (!vc) return std::nullopt;
    plan.min_s = std::max(plan.min_s, vc->last_stable);
    for (const auto& proof : vc->prepared) {
      auto pp = SplitPrePrepare::deserialize(proof.pre_prepare.payload);
      if (!pp) return std::nullopt;
      plan.max_s = std::max(plan.max_s, pp->seq);
      const auto it = best.find(pp->seq);
      if (it == best.end() || pp->view > it->second.view) {
        best[pp->seq] = Best{pp->view, pp->batch_digest};
      }
    }
  }
  if (plan.max_s < plan.min_s) plan.max_s = plan.min_s;
  const Digest null_digest = pbft::RequestBatch{}.digest();
  for (SeqNum seq = plan.min_s + 1; seq <= plan.max_s; ++seq) {
    const auto it = best.find(seq);
    plan.proposals[seq] = it != best.end() ? it->second.digest : null_digest;
  }
  return plan;
}

void PrepCompartment::maybe_send_new_view(View target, Out& out) {
  if (config_.primary(target) != self_ || new_view_sent_.contains(target)) {
    return;
  }
  const auto it = view_changes_.find(target);
  if (it == view_changes_.end() || it->second.size() < config_.quorum()) {
    return;
  }
  std::vector<net::Envelope> vc_envs;
  for (const auto& [sender, env] : it->second) {
    vc_envs.push_back(env);
    if (vc_envs.size() >= config_.quorum()) break;
  }
  auto plan = compute_plan(vc_envs);
  if (!plan) return;
  new_view_sent_.insert(target);

  pbft::NewView nv;
  nv.new_view = target;
  nv.view_changes = vc_envs;
  for (const auto& [seq, digest] : plan->proposals) {
    SplitPrePrepare pp;
    pp.view = target;
    pp.seq = seq;
    pp.batch_digest = digest;
    pp.sender = self_;
    // Re-attach the batch body if our own log has it (so Execution enclaves
    // that missed the original full PrePrepare can still execute).
    for (const auto& [logged_seq, logged_pp] : log_) {
      if (logged_seq == seq && logged_pp.batch_digest == digest &&
          logged_pp.has_batch) {
        pp.batch = logged_pp.batch;
        pp.has_batch = true;
        break;
      }
    }
    nv.pre_prepares.push_back(make_pre_prepare_envelope(pp, *signer_, 0));
  }
  nv.sender = self_;

  // One serialization + one signature; all copies share the frames.
  const net::Envelope proto = make_signed_proto(
      *signer_, pbft::tag(pbft::MsgType::NewView), SharedBytes(nv.serialize()));
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r == self_) continue;
    net::Envelope env = proto;
    env.dst = principal::enclave({r, Compartment::Preparation});
    out.push_back(std::move(env));
  }
  // Own Confirmation and Execution get the NewView directly.
  for (const Compartment c :
       {Compartment::Confirmation, Compartment::Execution}) {
    net::Envelope env = proto;
    env.dst = principal::enclave({self_, c});
    out.push_back(std::move(env));
  }
  logger().info() << "prep@r" << self_ << " sends NewView " << target;
  enter_view(target, nv.pre_prepares, out);
}

// -------------------------------------------------------- handler (7), (7')

void PrepCompartment::on_new_view(const net::Envelope& env, Out& out) {
  auto nv = pbft::NewView::deserialize(env.payload);
  if (!nv) return;
  if (nv->new_view <= view_ || nv->sender != config_.primary(nv->new_view)) {
    return;
  }
  const principal::Id nv_signer =
      principal::enclave({nv->sender, Compartment::Preparation});
  if (!auth_.check(env, nv_signer)) return;

  std::map<ReplicaId, bool> distinct;
  for (const auto& vce : nv->view_changes) {
    pbft::ViewChange vc;
    if (!validate_view_change(vce, vc)) return;
    if (vc.new_view != nv->new_view) return;
    distinct[vc.sender] = true;
  }
  if (distinct.size() < config_.quorum()) return;

  auto plan = compute_plan(nv->view_changes);
  if (!plan) return;
  if (nv->pre_prepares.size() != plan->proposals.size()) return;
  for (const auto& ppe : nv->pre_prepares) {
    auto pp = SplitPrePrepare::deserialize(ppe.payload);
    if (!pp || pp->view != nv->new_view || pp->sender != nv->sender) return;
    if (!verify_pre_prepare_envelope(ppe, *pp, auth_, nv_signer)) return;
    const auto it = plan->proposals.find(pp->seq);
    if (it == plan->proposals.end() || it->second != pp->batch_digest) return;
    if (pp->has_batch && crypto::sha256(pp->batch) != pp->batch_digest) {
      return;
    }
  }

  // Checkpoint part (handler 7'): adopt the proven stable checkpoint.
  if (plan->min_s > checkpoints_.last_stable()) {
    for (const auto& vce : nv->view_changes) {
      auto vc = pbft::ViewChange::deserialize(vce.payload);
      if (!vc || vc->last_stable != plan->min_s) continue;
      // validate_view_change already proved this certificate; re-wrapping
      // it is all cache hits.
      if (auto proof =
              verify_checkpoint_proof(vc->checkpoint_proof, plan->min_s,
                                      std::nullopt, config_, auth_)) {
        checkpoints_.adopt(plan->min_s, std::move(*proof));
        garbage_collect(plan->min_s);
      }
      break;
    }
  }
  enter_view(nv->new_view, nv->pre_prepares, out);
}

void PrepCompartment::enter_view(
    View v, const std::vector<net::Envelope>& o_pre_prepares, Out& out) {
  view_ = v;
  log_.clear();
  // Deferred batches die with the old view: the broker re-proposes every
  // still-outstanding request to the new primary right after the NewView,
  // so releasing them here would only double-propose.
  deferred_.clear();
  view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(v));
  new_view_sent_.erase(new_view_sent_.begin(), new_view_sent_.upper_bound(v));

  SeqNum max_seq = checkpoints_.last_stable();
  for (const auto& ppe : o_pre_prepares) {
    auto pp = SplitPrePrepare::deserialize(ppe.payload);
    if (!pp) continue;
    max_seq = std::max(max_seq, pp->seq);
    if (pp->seq <= checkpoints_.last_stable()) continue;
    log_[pp->seq] = *pp;
    if (!is_primary()) emit_prepare(*pp, out);
  }
  next_seq_ = max_seq;
  logger().info() << "prep@r" << self_ << " entered view " << v;
}

// -------------------------------------------------------------- attestation

void PrepCompartment::on_attest_request(const net::Envelope& env, Out& out) {
  auto req = AttestRequest::deserialize(env.payload);
  if (!req || !quote_fn_) return;

  ReportData rd;
  rd.signing_principal = signer_->id();
  rd.dh_public = {};  // Preparation holds no DH key
  rd.nonce = req->nonce;

  AttestReport report;
  report.replica = self_;
  report.compartment = Compartment::Preparation;
  report.quote = quote_fn_(rd.serialize());

  net::Envelope reply;
  reply.src = signer_->id();
  reply.dst = principal::client(req->client);
  reply.type = pbft::tag(pbft::MsgType::AttestReport);
  reply.payload = report.serialize();
  out.push_back(std::move(reply));
}

}  // namespace sbft::splitbft
