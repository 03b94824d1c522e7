#include "splitbft/broker.hpp"

#include <algorithm>
#include <iterator>
#include <ranges>

#include "common/serde.hpp"

namespace sbft::splitbft {

Broker::Broker(pbft::Config config, ReplicaId self,
               std::unique_ptr<tee::EnclaveHost> prep,
               std::unique_ptr<tee::EnclaveHost> conf,
               std::unique_ptr<tee::EnclaveHost> exec)
    : config_(config),
      self_(self),
      prep_(std::move(prep)),
      conf_(std::move(conf)),
      exec_(std::move(exec)) {
  if (config_.auto_tune) {
    tuner_ = std::make_unique<runtime::runner::AutoTuner>(
        runtime::runner::TuningLimits{}, config_.batch_max,
        config_.pipeline_depth, config_.read_batch_max);
    config_.batch_max = tuner_->batch_max();
    config_.read_batch_max = tuner_->read_batch_max();
  }
}

void Broker::observe_tuner(Micros now) {
  if (!tuner_) return;
  // Backlog = admitted requests not yet answered by a Reply. The tuned
  // batch knobs only shape what this broker hands its own Preparation
  // enclave — proposals are then consensus-ordered, so replicas with
  // different tuner states never diverge.
  if (tuner_->observe(outstanding_.size(), now)) {
    config_.batch_max = tuner_->batch_max();
    config_.read_batch_max = tuner_->read_batch_max();
  }
}

tee::EnclaveHost& Broker::host(Compartment c) noexcept {
  switch (c) {
    case Compartment::Preparation:
      return *prep_;
    case Compartment::Confirmation:
      return *conf_;
    case Compartment::Execution:
      return *exec_;
  }
  return *prep_;
}

const tee::EnclaveHost& Broker::host(Compartment c) const noexcept {
  return const_cast<Broker*>(this)->host(c);
}

void Broker::enable_ingress_filter(
    std::shared_ptr<const crypto::Verifier> verifier) {
  ingress_ = std::make_unique<net::VerifyCache>(std::move(verifier));
}

bool Broker::passes_ingress_filter(const net::Envelope& env) {
  if (!ingress_) return true;
  // Map each signed wire type to the enclave principal the receiving
  // compartment will check (sender is taken from the payload, exactly as
  // the enclave does). Anything unparseable or not signature-carrying is
  // passed through: the enclaves are authoritative, this filter only
  // short-circuits provably invalid signatures before an ecall.
  const auto expect = [&](ReplicaId sender,
                          Compartment c) -> std::optional<principal::Id> {
    if (sender >= config_.n) return std::nullopt;
    return principal::enclave({sender, c});
  };
  switch (static_cast<pbft::MsgType>(env.type)) {
    case pbft::MsgType::PrePrepare: {
      const auto pp = SplitPrePrepare::deserialize(env.payload);
      if (!pp) return true;
      const auto signer = expect(pp->sender, Compartment::Preparation);
      if (!signer) return true;
      return ingress_->check_raw(*signer, pp->header_bytes(), env.signature);
    }
    case pbft::MsgType::Prepare: {
      const auto prep = pbft::Prepare::deserialize(env.payload);
      if (!prep) return true;
      const auto signer = expect(prep->sender, Compartment::Preparation);
      return !signer || ingress_->check(env, *signer);
    }
    case pbft::MsgType::Commit: {
      const auto commit = pbft::Commit::deserialize(env.payload);
      if (!commit) return true;
      const auto signer = expect(commit->sender, Compartment::Confirmation);
      return !signer || ingress_->check(env, *signer);
    }
    case pbft::MsgType::Checkpoint: {
      const auto cp = pbft::Checkpoint::deserialize(env.payload);
      if (!cp) return true;
      const auto signer = expect(cp->sender, Compartment::Execution);
      return !signer || ingress_->check(env, *signer);
    }
    case pbft::MsgType::ViewChange: {
      const auto vc = pbft::ViewChange::deserialize(env.payload);
      if (!vc) return true;
      const auto signer = expect(vc->sender, Compartment::Confirmation);
      return !signer || ingress_->check(env, *signer);
    }
    case pbft::MsgType::NewView: {
      const auto nv = pbft::NewView::deserialize(env.payload);
      if (!nv) return true;
      const auto signer = expect(nv->sender, Compartment::Preparation);
      return !signer || ingress_->check(env, *signer);
    }
    case pbft::MsgType::StateRequest: {
      const auto sr = pbft::StateRequest::deserialize(env.payload);
      if (!sr) return true;
      const auto signer = expect(sr->sender, Compartment::Execution);
      return !signer || ingress_->check(env, *signer);
    }
    case pbft::MsgType::StateResponse: {
      const auto resp = pbft::StateResponse::deserialize(env.payload);
      if (!resp) return true;
      const auto signer = expect(resp->sender, Compartment::Execution);
      return !signer || ingress_->check(env, *signer);
    }
    default:
      return true;  // client traffic / local messages: not our concern
  }
}

bool Broker::is_local(principal::Id id,
                      Compartment& out_compartment) const noexcept {
  for (const Compartment c :
       {Compartment::Preparation, Compartment::Confirmation,
        Compartment::Execution}) {
    if (id == principal::enclave({self_, c})) {
      out_compartment = c;
      return true;
    }
  }
  return false;
}

void Broker::deliver_to(Compartment c, const net::Envelope& env, Out& out) {
  // The envelope's wire image is written into the reused argument buffer
  // (no per-ecall image is built), and the result is decoded as one frame
  // that every emitted envelope slices.
  Writer args(std::move(ecall_args_));
  args.reserve(env.wire_size());
  env.write_wire(args);
  ecall_args_ = std::move(args).take();
  auto outbox = decode_outbox(SharedBytes(host(c).ecall(
      static_cast<std::uint32_t>(tee::EcallFn::DeliverMessage),
      ecall_args_)));
  if (!outbox) return;
  for (auto& emitted : *outbox) {
    if (emitted.type == pbft::tag(pbft::MsgType::NewView)) {
      new_view_emitted_ = true;  // our Preparation enclave leads a new view
    }
    Compartment target{};
    if (is_local(emitted.dst, target)) {
      local_queue_.push_back(std::move(emitted));
    } else {
      // Replies pass the broker on their way out; clear suspicion timers
      // (pure liveness bookkeeping on untrusted data). A Reply retires its
      // client's requests up to its timestamp, which under the
      // (client, timestamp) key order is one contiguous range.
      if (emitted.type == pbft::tag(pbft::MsgType::Reply)) {
        if (const auto reply = pbft::ReplyView::parse(emitted.payload)) {
          outstanding_.erase(
              outstanding_.lower_bound({reply->client, Timestamp{0}}),
              outstanding_.upper_bound({reply->client, reply->timestamp}));
        }
      }
      out.push_back(std::move(emitted));
    }
  }
}

void Broker::route(net::Envelope env, Out& out, Micros now) {
  (void)now;
  Compartment target{};
  if (!is_local(env.dst, target)) {
    out.push_back(std::move(env));  // pass-through (shouldn't happen)
    return;
  }

  const auto type = static_cast<pbft::MsgType>(env.type);
  if (type == pbft::MsgType::PrePrepare &&
      target == Compartment::Preparation) {
    // Duplicate into all three input logs (paper §3.2): full body for
    // Preparation and Execution, header-only for Confirmation.
    deliver_to(Compartment::Preparation, env, out);
    net::Envelope stripped = env;
    if (auto header = SplitPrePrepare::strip_payload(env.payload)) {
      stripped.payload = SharedBytes(std::move(*header));
    }
    stripped.dst = principal::enclave({self_, Compartment::Confirmation});
    deliver_to(Compartment::Confirmation, stripped, out);
    net::Envelope full = env;
    full.dst = principal::enclave({self_, Compartment::Execution});
    deliver_to(Compartment::Execution, full, out);
    return;
  }
  if (type == pbft::MsgType::Checkpoint && target == Compartment::Execution) {
    for (const Compartment c :
         {Compartment::Preparation, Compartment::Confirmation,
          Compartment::Execution}) {
      net::Envelope copy = env;
      copy.dst = principal::enclave({self_, c});
      deliver_to(c, copy, out);
    }
    return;
  }
  if (type == pbft::MsgType::NewView && target == Compartment::Preparation) {
    for (const Compartment c :
         {Compartment::Preparation, Compartment::Confirmation,
          Compartment::Execution}) {
      net::Envelope copy = env;
      copy.dst = principal::enclave({self_, c});
      deliver_to(c, copy, out);
    }
    // A new view just started: hand any still-outstanding requests to the
    // Preparation enclave (only the new primary's will act). Pure liveness.
    requeue_outstanding(now, out);
    return;
  }
  deliver_to(target, env, out);
}

void Broker::on_client_request(const net::Envelope& env, Micros now,
                               Out& out) {
  const auto req = pbft::RequestView::parse(env.payload);
  if (!req) return;
  const auto key = std::make_pair(req->client, req->timestamp);
  // Admission control: shed FRESH requests past the cap before they arm a
  // suspicion timer or enter the batch buffer (silence = backpressure, the
  // client retransmits). Retransmits of admitted requests pass — dropping
  // those would turn overload into a liveness failure.
  const bool fresh = !outstanding_.contains(key);
  if (fresh && config_.admission_queue_cap != 0 &&
      outstanding_.size() >= config_.admission_queue_cap) {
    ++admission_rejects_;
    return;
  }
  observe_tuner(now);
  // Arm the suspicion timer — liveness only; the enclaves re-check
  // authenticity themselves.
  Outstanding tracked;
  tracked.request = env.payload;
  tracked.deadline = now + config_.request_timeout_us;
  const auto [slot, inserted] = outstanding_.emplace(key, std::move(tracked));
  if (inserted) {
    next_deadline_ = std::min(next_deadline_, slot->second.deadline);
  }
  pending_batch_[key] = env.payload;
  if (pending_batch_.size() >= config_.batch_max || config_.batch_max <= 1) {
    cut_batch(now, out);
  } else if (batch_deadline_ == 0) {
    batch_deadline_ = now + config_.batch_timeout_us;
  }
}

void Broker::cut_batch(Micros now, Out& out) {
  (void)now;
  batch_deadline_ = 0;
  if (pending_batch_.empty()) return;
  const auto end = std::next(
      pending_batch_.begin(),
      static_cast<std::ptrdiff_t>(
          std::min<std::size_t>(pending_batch_.size(), config_.batch_max)));
  net::Envelope env;
  env.src = 0;  // local, unauthenticated (the enclave re-checks everything)
  env.dst = principal::enclave({self_, Compartment::Preparation});
  env.type = tag(LocalMsg::Batch);
  env.payload = SharedBytes(pbft::concat_request_batch(std::ranges::subrange(
      pending_batch_.begin(), end) | std::views::values));
  pending_batch_.erase(pending_batch_.begin(), end);
  deliver_to(Compartment::Preparation, env, out);

  if (!pending_batch_.empty() && batch_deadline_ == 0) {
    batch_deadline_ = now + config_.batch_timeout_us;
  }
}

void Broker::on_read_request(const net::Envelope& env, Micros now, Out& out) {
  // Read fast path: queue for the Execution compartment alone — no
  // ordering, no Preparation/Confirmation ecalls, and no suspicion timer
  // (a read that goes unanswered falls back to ordering client-side).
  // Reads are coalesced so one ecall serves up to read_batch_max of them;
  // like request batching, this amortizes the enclave-crossing cost.
  if (!pbft::RequestView::parse(env.payload)) return;
  pending_reads_.push_back(env.payload);
  if (pending_reads_.size() >= config_.read_batch_max ||
      config_.read_batch_max <= 1) {
    cut_read_batch(now, out);
  } else if (read_batch_deadline_ == 0) {
    read_batch_deadline_ = now + config_.read_batch_delay_us;
  }
}

void Broker::cut_read_batch(Micros now, Out& out) {
  (void)now;
  read_batch_deadline_ = 0;
  while (!pending_reads_.empty()) {
    const auto end = std::next(
        pending_reads_.begin(),
        static_cast<std::ptrdiff_t>(std::min<std::size_t>(
            pending_reads_.size(),
            std::max<std::size_t>(config_.read_batch_max, 1))));
    net::Envelope env;
    env.src = 0;  // local hand-off; the enclave re-checks every read
    env.dst = principal::enclave({self_, Compartment::Execution});
    env.type = tag(LocalMsg::ReadBatch);
    env.payload = SharedBytes(pbft::concat_request_batch(
        std::ranges::subrange(pending_reads_.begin(), end)));
    pending_reads_.erase(pending_reads_.begin(), end);
    deliver_to(Compartment::Execution, env, out);
  }
}

void Broker::requeue_outstanding(Micros now, Out& out) {
  if (outstanding_.empty()) return;
  for (const auto& [key, tracked] : outstanding_) {
    if (!pending_batch_.contains(key)) {
      pending_batch_[key] = tracked.request;
    }
  }
  cut_batch(now, out);
}

std::vector<net::Envelope> Broker::handle(const net::Envelope& env,
                                          Micros now) {
  Out out;
  if (env.type == pbft::tag(pbft::MsgType::Request)) {
    on_client_request(env, now, out);
  } else if (env.type == pbft::tag(pbft::MsgType::ReadRequest)) {
    on_read_request(env, now, out);
  } else if (passes_ingress_filter(env)) {
    route(env, out, now);
  }
  // Drain cascaded local deliveries (enclave → enclave via the broker).
  while (!local_queue_.empty()) {
    net::Envelope next = std::move(local_queue_.front());
    local_queue_.pop_front();
    route(std::move(next), out, now);
  }
  if (new_view_emitted_) {
    new_view_emitted_ = false;
    requeue_outstanding(now, out);
    while (!local_queue_.empty()) {
      net::Envelope next = std::move(local_queue_.front());
      local_queue_.pop_front();
      route(std::move(next), out, now);
    }
  }
  return out;
}

std::vector<net::Envelope> Broker::tick(Micros now) {
  Out out;
  observe_tuner(now);
  // Execution owns no clock (compartments are deliver-only): forward the
  // tick so its streaming state transfer can expire chunk assignments and
  // pace StateRequest re-broadcasts.
  {
    Writer w;
    w.u64(now);
    net::Envelope env;
    env.dst = principal::enclave({self_, Compartment::Execution});
    env.type = tag(LocalMsg::StateTick);
    env.payload = std::move(w).take();
    deliver_to(Compartment::Execution, env, out);
  }
  if (batch_deadline_ != 0 && now >= batch_deadline_) {
    cut_batch(now, out);
  }
  if (read_batch_deadline_ != 0 && now >= read_batch_deadline_) {
    cut_read_batch(now, out);
  }
  // Fire at most one suspicion per sweep, with exponential backoff (the
  // PBFT view-change timeout doubling), and re-queue expired requests for
  // the (possibly new) primary to propose. No deadline is due before
  // next_deadline_, so the walk is skipped until then.
  if (now >= next_deadline_) {
    bool suspected = false;
    bool requeued = false;
    Micros earliest = std::numeric_limits<Micros>::max();
    for (auto& [key, tracked] : outstanding_) {
      if (now >= tracked.deadline) {
        tracked.backoff = std::min<std::uint32_t>(tracked.backoff * 2, 64);
        tracked.deadline =
            now + config_.request_timeout_us * tracked.backoff;
        if (!pending_batch_.contains(key)) {
          pending_batch_[key] = tracked.request;
          requeued = true;
        }
        if (!suspected) {
          suspected = true;
          net::Envelope env;
          env.dst = principal::enclave({self_, Compartment::Confirmation});
          env.type = tag(LocalMsg::SuspectPrimary);
          deliver_to(Compartment::Confirmation, env, out);
        }
      }
      earliest = std::min(earliest, tracked.deadline);
    }
    next_deadline_ = earliest;
    if (requeued) cut_batch(now, out);
  }
  while (!local_queue_.empty()) {
    net::Envelope next = std::move(local_queue_.front());
    local_queue_.pop_front();
    route(std::move(next), out, now);
  }
  return out;
}

}  // namespace sbft::splitbft
