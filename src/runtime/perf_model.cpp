#include "runtime/perf_model.hpp"

#include <algorithm>
#include <set>

#include "crypto/sha256.hpp"
#include "splitbft/messages.hpp"

namespace sbft::runtime {

namespace {

using pbft::MsgType;

[[nodiscard]] double kib(std::size_t bytes) {
  return static_cast<double>(bytes) / 1024.0;
}

[[nodiscard]] double serde_cost(const CostProfile& p, std::size_t bytes) {
  return p.serde_base_us + p.serde_us_per_kib * kib(bytes);
}

[[nodiscard]] double hash_cost(const CostProfile& p, std::size_t bytes) {
  return p.hash_base_us + p.hash_us_per_kib * kib(bytes);
}

[[nodiscard]] double aead_cost(const CostProfile& p, std::size_t bytes) {
  return p.aead_base_us + p.aead_us_per_kib * kib(bytes);
}

/// Number of requests in a (serialized) SplitPrePrepare's batch.
[[nodiscard]] std::size_t split_batch_size(ByteView payload) {
  const auto pp = splitbft::SplitPrePrepare::deserialize(payload);
  if (!pp || !pp->has_batch) return 0;
  const auto batch = pbft::RequestBatch::deserialize(pp->batch);
  return batch ? batch->requests.size() : 0;
}

[[nodiscard]] std::size_t pbft_batch_size(ByteView payload) {
  const auto pp = pbft::PrePrepare::deserialize(payload);
  if (!pp) return 0;
  const auto batch = pbft::RequestBatch::deserialize(pp->batch);
  return batch ? batch->requests.size() : 0;
}

/// Signing cost is paid once per DISTINCT signed message; broadcast copies
/// of the same envelope reuse the signature.
class DistinctSignTracker {
 public:
  [[nodiscard]] bool first(const net::Envelope& env) {
    if (env.signature.empty()) return false;
    // env.digest() commits to (type || payload) and is memoized on the
    // envelope — broadcast copies share it, so tracking a copy costs a set
    // insert, not a hash of the payload.
    return seen_.insert(env.digest()).second;
  }

 private:
  std::set<Digest> seen_;
};

}  // namespace

// ------------------------------------------------------------ SplitBFT

SplitPerfActor::SplitPerfActor(SimHarness& harness,
                               std::shared_ptr<Actor> inner,
                               CostProfile profile, bool single_ecall_thread,
                               std::size_t exec_workers)
    : harness_(harness),
      inner_(std::move(inner)),
      profile_(profile),
      single_thread_(single_ecall_thread),
      exec_workers_(exec_workers > 1 ? exec_workers : 0) {}

Resource& SplitPerfActor::resource_for(Compartment c) {
  if (single_thread_) return shared_ecall_;
  return enclaves_[static_cast<std::size_t>(c)];
}

const Resource& SplitPerfActor::resource(Compartment c) const {
  if (single_thread_) return shared_ecall_;
  return enclaves_[static_cast<std::size_t>(c)];
}

void SplitPerfActor::release(std::vector<net::Envelope> outs, Micros at) {
  harness_.scheduler().at(at, [this, outs = std::move(outs)] {
    harness_.inject(outs);
  });
}

std::vector<net::Envelope> SplitPerfActor::handle(const net::Envelope& env,
                                                  Micros now) {
  // Run the real engine immediately; outputs are released when the modeled
  // service completes.
  const std::uint64_t blocks_before = blocks_fn_ ? blocks_fn_() : 0;
  std::array<net::VerifyStats, kNumCompartments> auth_before{};
  for (std::size_t c = 0; c < kNumCompartments; ++c) {
    if (auth_fns_[c]) auth_before[c] = auth_fns_[c]();
  }
  std::vector<net::Envelope> outs = inner_->handle(env, now);
  const std::uint64_t blocks_written =
      blocks_fn_ ? blocks_fn_() - blocks_before : 0;

  const auto type = static_cast<MsgType>(env.type);
  const CostProfile& p = profile_;

  // --- per-compartment service composed from input validation work ---
  std::array<double, kNumCompartments> service{};  // [prep, conf, exec]
  std::array<std::size_t, kNumCompartments> ecall_bytes_in{};
  std::array<bool, kNumCompartments> involved{};
  // Signature verifications per compartment, kept separate so a wired-up
  // VerifyCache sampler can replace the static estimate with the measured
  // hit/miss mix.
  std::array<double, kNumCompartments> verify_units{};
  const auto add = [&](Compartment c, double us) {
    service[static_cast<std::size_t>(c)] += us;
    involved[static_cast<std::size_t>(c)] = true;
  };
  const auto add_verify = [&](Compartment c, double units) {
    verify_units[static_cast<std::size_t>(c)] += units;
    involved[static_cast<std::size_t>(c)] = true;
  };
  const auto add_in_bytes = [&](Compartment c, std::size_t bytes) {
    ecall_bytes_in[static_cast<std::size_t>(c)] += bytes;
    involved[static_cast<std::size_t>(c)] = true;
  };

  double broker_us = p.broker_msg_us + serde_cost(p, env.payload.size());

  switch (type) {
    case MsgType::Request:
      // Batching happens on the broker; the Preparation ecall (if a batch
      // was cut) is accounted through the PrePrepare outputs below.
      break;
    case MsgType::ReadRequest:
      // Read fast path: the broker queues the read for a coalesced
      // Execution ecall (like request batching, the ecall is accounted
      // when the ReadReply outputs emerge — one crossing per batch).
      break;
    case MsgType::PrePrepare: {
      const std::size_t k = split_batch_size(env.payload);
      // Preparation: header sig + per-request client MACs + batch digest.
      add(Compartment::Preparation,
          static_cast<double>(k) * p.hmac_us +
              hash_cost(p, env.payload.size()));
      add_verify(Compartment::Preparation, 1);
      add_in_bytes(Compartment::Preparation, env.payload.size());
      // Confirmation sees only the header.
      add_verify(Compartment::Confirmation, 1);
      add_in_bytes(Compartment::Confirmation, 64);
      // Execution stores the full batch (sig + digest check) and, at
      // execution time, re-authenticates and AEAD-opens every request
      // (defence in depth in the engine — charge what the code does).
      add(Compartment::Execution,
          hash_cost(p, env.payload.size()) +
              static_cast<double>(k) * (p.hmac_us + p.aead_base_us));
      add_verify(Compartment::Execution, 1);
      add_in_bytes(Compartment::Execution, env.payload.size());
      break;
    }
    case MsgType::Prepare:
      add_verify(Compartment::Confirmation, 1);
      add_in_bytes(Compartment::Confirmation, env.payload.size());
      break;
    case MsgType::Commit:
      add_verify(Compartment::Execution, 1);
      add_in_bytes(Compartment::Execution, env.payload.size());
      break;
    case MsgType::Checkpoint:
      for (const Compartment c :
           {Compartment::Preparation, Compartment::Confirmation,
            Compartment::Execution}) {
        add_verify(c, 1);
        add_in_bytes(c, env.payload.size());
      }
      break;
    case MsgType::ViewChange:
      add_verify(Compartment::Preparation, 4);
      add_in_bytes(Compartment::Preparation, env.payload.size());
      break;
    case MsgType::NewView:
      add_verify(Compartment::Preparation, 8);
      add_verify(Compartment::Confirmation, 3);
      add_verify(Compartment::Execution, 3);
      for (const Compartment c :
           {Compartment::Preparation, Compartment::Confirmation,
            Compartment::Execution}) {
        add_in_bytes(c, env.payload.size());
      }
      break;
    case MsgType::StateRequest:
      add_verify(Compartment::Execution, 1);
      add_in_bytes(Compartment::Execution, env.payload.size());
      break;
    case MsgType::StateResponse:
      add(Compartment::Execution, aead_cost(p, env.payload.size()));
      add_verify(Compartment::Execution, 3);
      add_in_bytes(Compartment::Execution, env.payload.size());
      break;
    case MsgType::AttestRequest:
      add(Compartment::Execution, p.sign_us);  // quote issuance
      add_in_bytes(Compartment::Execution, env.payload.size());
      break;
    case MsgType::SessionInit:
      // X25519 + KDF + AEAD open: dominated by the DH scalar mult (charged
      // in verify-equivalents, but NOT signature verification — a sampler
      // never replaces this).
      add(Compartment::Execution, 4 * p.verify_us);
      add_in_bytes(Compartment::Execution, env.payload.size());
      break;
    default:
      break;
  }

  // Resolve signature-verification work: measured hit/miss mix where a
  // cache sampler is wired up, static estimate otherwise.
  for (std::size_t c = 0; c < kNumCompartments; ++c) {
    if (auth_fns_[c]) {
      const net::VerifyStats after = auth_fns_[c]();
      const double full =
          static_cast<double>((after.misses - auth_before[c].misses) +
                              (after.failures - auth_before[c].failures));
      const double hits =
          static_cast<double>(after.hits - auth_before[c].hits);
      const double us = full * p.verify_us + hits * p.verify_cached_us;
      if (us > 0) add(static_cast<Compartment>(c), us);
    } else if (verify_units[c] > 0) {
      add(static_cast<Compartment>(c), verify_units[c] * p.verify_us);
    }
  }

  // --- service from produced outputs, attributed by message type ---
  DistinctSignTracker signs;
  std::array<std::size_t, kNumCompartments> ecall_bytes_out{};
  std::size_t replies = 0;
  // Staged-runner split: seal/MAC/serialize and read service round-robin
  // over the exec workers; app execution stays on the serial ecall thread.
  std::vector<double> exec_stage(exec_workers_.size(), 0.0);
  std::size_t exec_rr = 0;
  const auto stage_exec = [&](double us) {
    exec_stage[exec_rr++ % exec_stage.size()] += us;
  };
  for (const auto& out : outs) {
    const auto out_type = static_cast<MsgType>(out.type);
    broker_us += p.broker_msg_us;  // event-loop send handling
    switch (out_type) {
      case MsgType::PrePrepare: {
        if (signs.first(out)) {
          const std::size_t k = split_batch_size(out.payload);
          // Primary path: batch MAC checks + digest + header signature.
          add(Compartment::Preparation,
              p.sign_us + static_cast<double>(k) * p.hmac_us +
                  hash_cost(p, out.payload.size()) +
                  serde_cost(p, out.payload.size()));
          add_in_bytes(Compartment::Preparation, out.payload.size());
        }
        ecall_bytes_out[static_cast<std::size_t>(Compartment::Preparation)] +=
            out.payload.size();
        break;
      }
      case MsgType::Prepare:
        if (signs.first(out)) add(Compartment::Preparation, p.sign_us);
        ecall_bytes_out[static_cast<std::size_t>(Compartment::Preparation)] +=
            out.payload.size();
        break;
      case MsgType::Commit:
        if (signs.first(out)) add(Compartment::Confirmation, p.sign_us);
        ecall_bytes_out[static_cast<std::size_t>(Compartment::Confirmation)] +=
            out.payload.size();
        break;
      case MsgType::Reply: {
        ++replies;
        if (exec_workers_.empty()) {
          add(Compartment::Execution,
              p.app_op_us + aead_cost(p, out.payload.size()) + p.hmac_us +
                  serde_cost(p, out.payload.size()));
        } else {
          add(Compartment::Execution, p.app_op_us);
          stage_exec(aead_cost(p, out.payload.size()) + p.hmac_us +
                     serde_cost(p, out.payload.size()));
        }
        ecall_bytes_out[static_cast<std::size_t>(Compartment::Execution)] +=
            out.payload.size();
        break;
      }
      case MsgType::ReadReply: {
        // One served read: request MAC check + AEAD open, the app read,
        // the reply MAC and marshalling — and the value seal ONLY on the
        // designated responder (digest-only replies skip the AEAD, the
        // bandwidth/CPU saving of reply-digest suppression).
        double read_us = p.hmac_us + aead_cost(p, 64) + p.app_op_us +
                         p.hmac_us + serde_cost(p, out.payload.size());
        const auto rr = pbft::ReadReply::deserialize(out.payload);
        if (rr && rr->has_result) {
          read_us += aead_cost(p, out.payload.size());
        }
        if (exec_workers_.empty()) {
          add(Compartment::Execution, read_us);
        } else {
          // Reads are fully parallelizable (stable-snapshot execution);
          // the ecall thread only pays the crossing.
          add(Compartment::Execution, 0.0);
          stage_exec(read_us);
        }
        ecall_bytes_out[static_cast<std::size_t>(Compartment::Execution)] +=
            out.payload.size();
        break;
      }
      case MsgType::Checkpoint:
        if (signs.first(out)) {
          add(Compartment::Execution,
              p.sign_us + hash_cost(p, 2048));  // snapshot digest
        }
        ecall_bytes_out[static_cast<std::size_t>(Compartment::Execution)] +=
            out.payload.size();
        break;
      case MsgType::ViewChange:
        if (signs.first(out)) add(Compartment::Confirmation, p.sign_us);
        break;
      case MsgType::NewView:
        if (signs.first(out)) add(Compartment::Preparation, 4 * p.sign_us);
        break;
      case MsgType::StateResponse:
        if (signs.first(out)) {
          add(Compartment::Execution,
              p.sign_us + aead_cost(p, out.payload.size()));
        }
        break;
      case MsgType::AttestReport:
      case MsgType::SessionAck:
        add(Compartment::Execution, p.hmac_us);
        break;
      default:
        break;
    }
  }
  (void)replies;
  // Each persisted ledger block pays the protected-FS seal + ocall.
  if (blocks_written > 0) {
    add(Compartment::Execution,
        static_cast<double>(blocks_written) * p.block_io_us);
  }

  // --- book the pipeline: broker first, then the enclave ecalls ---
  const Micros broker_done =
      broker_.book(now, static_cast<Micros>(broker_us));
  Micros done = broker_done;
  for (std::size_t c = 0; c < kNumCompartments; ++c) {
    if (!involved[c]) continue;
    const Micros crossing = profile_.sgx.crossing_cost(ecall_bytes_in[c],
                                                       ecall_bytes_out[c]);
    const Micros service_us =
        static_cast<Micros>(service[c]) + crossing;
    Resource& r = resource_for(static_cast<Compartment>(c));
    const Micros end = r.book(broker_done, service_us);
    ecall_stats_[c].calls += 1;
    ecall_stats_[c].total_us += service_us;
    done = std::max(done, end);
  }
  // Book the staged parallel work across the exec workers; each bucket
  // starts at broker_done, overlapping the ordered stage exactly as the
  // runner pipelines request i+1's execution with request i's seal.
  for (const double bucket_us : exec_stage) {
    if (bucket_us <= 0.5) continue;
    Resource& w = *std::min_element(
        exec_workers_.begin(), exec_workers_.end(),
        [](const Resource& a, const Resource& b) {
          return a.busy_until < b.busy_until;
        });
    done = std::max(done, w.book(broker_done,
                                 static_cast<Micros>(bucket_us)));
  }

  if (outs.empty()) return {};
  release(std::move(outs), done);
  return {};
}

std::vector<net::Envelope> SplitPerfActor::tick(Micros now) {
  // Timer work (batch cut, read-batch cut) may emit PrePrepares or
  // ReadReplies — run it through the same accounting path as handle().
  std::vector<net::Envelope> outs = inner_->tick(now);
  if (outs.empty()) return {};

  DistinctSignTracker signs;
  double prep_us = 0;
  double exec_us = 0;
  std::size_t prep_bytes = 0;
  std::size_t exec_bytes = 0;
  double broker_us = profile_.broker_msg_us;
  std::vector<double> exec_stage(exec_workers_.size(), 0.0);
  std::size_t exec_rr = 0;
  for (const auto& out : outs) {
    broker_us += profile_.broker_msg_us;
    const auto type = static_cast<MsgType>(out.type);
    if (type == MsgType::PrePrepare && signs.first(out)) {
      const std::size_t k = split_batch_size(out.payload);
      prep_us += profile_.sign_us +
                 static_cast<double>(k) * profile_.hmac_us +
                 hash_cost(profile_, out.payload.size()) +
                 serde_cost(profile_, out.payload.size());
      prep_bytes += out.payload.size();
    } else if (type == MsgType::ReadReply) {
      // Coalesced fast-path reads served from the read-batch timer: same
      // per-read cost as in handle(), one crossing for the whole batch.
      // With a staged runner each read lands on a different worker.
      double read_us = profile_.hmac_us + aead_cost(profile_, 64) +
                       profile_.app_op_us + profile_.hmac_us +
                       serde_cost(profile_, out.payload.size());
      const auto rr = pbft::ReadReply::deserialize(out.payload);
      if (rr && rr->has_result) {
        read_us += aead_cost(profile_, out.payload.size());
      }
      if (exec_workers_.empty()) {
        exec_us += read_us;
      } else {
        exec_stage[exec_rr++ % exec_stage.size()] += read_us;
      }
      exec_bytes += out.payload.size();
    }
  }
  const Micros broker_done = broker_.book(now, static_cast<Micros>(broker_us));
  Micros done = broker_done;
  if (prep_us > 0) {
    const Micros crossing = profile_.sgx.crossing_cost(prep_bytes, prep_bytes);
    Resource& r = resource_for(Compartment::Preparation);
    done = r.book(broker_done, static_cast<Micros>(prep_us) + crossing);
    auto& stats =
        ecall_stats_[static_cast<std::size_t>(Compartment::Preparation)];
    stats.calls += 1;
    stats.total_us += static_cast<Micros>(prep_us) + crossing;
  }
  const bool exec_staged = exec_rr > 0;
  if (exec_us > 0 || exec_staged) {
    const Micros crossing =
        profile_.sgx.crossing_cost(exec_bytes, exec_bytes);
    Resource& r = resource_for(Compartment::Execution);
    const Micros end =
        r.book(broker_done, static_cast<Micros>(exec_us) + crossing);
    done = std::max(done, end);
    for (const double bucket_us : exec_stage) {
      if (bucket_us <= 0.5) continue;
      Resource& w = *std::min_element(
          exec_workers_.begin(), exec_workers_.end(),
          [](const Resource& a, const Resource& b) {
            return a.busy_until < b.busy_until;
          });
      done = std::max(done, w.book(broker_done,
                                   static_cast<Micros>(bucket_us)));
    }
    auto& stats =
        ecall_stats_[static_cast<std::size_t>(Compartment::Execution)];
    stats.calls += 1;
    stats.total_us += static_cast<Micros>(exec_us) + crossing;
  }
  release(std::move(outs), done);
  return {};
}

// ---------------------------------------------------------------- PBFT

PbftPerfActor::PbftPerfActor(SimHarness& harness, std::shared_ptr<Actor> inner,
                             CostProfile profile, std::size_t workers)
    : harness_(harness),
      inner_(std::move(inner)),
      profile_(profile),
      workers_(workers) {}

void PbftPerfActor::release(std::vector<net::Envelope> outs, Micros at) {
  harness_.scheduler().at(at, [this, outs = std::move(outs)] {
    harness_.inject(outs);
  });
}

std::vector<net::Envelope> PbftPerfActor::handle(const net::Envelope& env,
                                                 Micros now) {
  const std::uint64_t blocks_before = blocks_fn_ ? blocks_fn_() : 0;
  const net::VerifyStats auth_before =
      auth_fn_ ? auth_fn_() : net::VerifyStats{};
  std::vector<net::Envelope> outs = inner_->handle(env, now);
  const std::uint64_t blocks_written =
      blocks_fn_ ? blocks_fn_() - blocks_before : 0;

  const CostProfile& p = profile_;
  const auto type = static_cast<MsgType>(env.type);

  // Inbound crypto/marshalling (parallelized across the worker pool).
  double worker_in_us = serde_cost(p, env.payload.size());
  // Signature verifications, kept separate so the VerifyCache sampler can
  // replace the static per-type estimate with the measured hit/miss mix.
  double verify_units = 0;
  // Agreement messages pay protocol bookkeeping; buffering a client
  // request (or picking up a fast read) is a cheap queue append — the
  // read's execution cost is charged on its ReadReply output.
  double protocol_us =
      type == MsgType::Request || type == MsgType::ReadRequest
          ? 1.0
          : p.proto_msg_us;
  switch (type) {
    case MsgType::Request:
    case MsgType::ReadRequest:
      worker_in_us += p.hmac_us;
      break;
    case MsgType::PrePrepare: {
      const std::size_t k = pbft_batch_size(env.payload);
      verify_units = 1;
      worker_in_us += static_cast<double>(k) * p.hmac_us +
                      hash_cost(p, env.payload.size());
      break;
    }
    case MsgType::Prepare:
    case MsgType::Commit:
    case MsgType::Checkpoint:
      verify_units = 1;
      break;
    case MsgType::ViewChange:
      verify_units = 4;
      break;
    case MsgType::NewView:
      verify_units = 8;
      break;
    case MsgType::StateResponse:
      verify_units = 3;
      break;
    default:
      break;
  }
  if (auth_fn_) {
    const net::VerifyStats after = auth_fn_();
    const double full =
        static_cast<double>((after.misses - auth_before.misses) +
                            (after.failures - auth_before.failures));
    const double hits = static_cast<double>(after.hits - auth_before.hits);
    worker_in_us += full * p.verify_us + hits * p.verify_cached_us;
  } else {
    worker_in_us += verify_units * p.verify_us;
  }

  // Outbound crypto (signatures once per distinct message; reply auth and
  // marshalling parallelized per the paper). Mirroring the staged runner,
  // each output's worker cost round-robins into one bucket per worker so
  // reply MAC/serialize genuinely spreads across the pool — with one
  // worker the buckets collapse to the old single booking.
  DistinctSignTracker signs;
  std::vector<double> out_stage(workers_.size(), 0.0);
  std::size_t out_rr = 0;
  for (const auto& out : outs) {
    const auto out_type = static_cast<MsgType>(out.type);
    double out_us = serde_cost(p, 64);  // per-send framing
    switch (out_type) {
      case MsgType::PrePrepare: {
        if (signs.first(out)) {
          const std::size_t k = pbft_batch_size(out.payload);
          out_us += p.sign_us + static_cast<double>(k) * p.hmac_us +
                    hash_cost(p, out.payload.size()) +
                    serde_cost(p, out.payload.size());
        }
        break;
      }
      case MsgType::Prepare:
      case MsgType::Commit:
      case MsgType::Checkpoint:
      case MsgType::ViewChange:
      case MsgType::StateResponse:
        if (signs.first(out)) out_us += p.sign_us;
        break;
      case MsgType::NewView:
        if (signs.first(out)) out_us += 4 * p.sign_us;
        break;
      case MsgType::Reply:
      case MsgType::ReadReply:
        // Execution itself is protocol-serial (reads execute against the
        // same committed state); reply auth + marshalling run on the
        // workers.
        protocol_us += p.app_op_us;
        out_us += p.hmac_us + serde_cost(p, out.payload.size());
        break;
      default:
        break;
    }
    out_stage[out_rr++ % out_stage.size()] += out_us;
  }

  // Plain (non-enclave) block persistence: cheaper than the protected FS.
  if (blocks_written > 0) {
    protocol_us += static_cast<double>(blocks_written) * p.block_io_us * 0.4;
  }

  // Pipeline: least-busy worker (inbound) -> protocol thread -> worker.
  const auto least_busy = [this] {
    return &*std::min_element(
        workers_.begin(), workers_.end(),
        [](const Resource& a, const Resource& b) {
          return a.busy_until < b.busy_until;
        });
  };
  const Micros in_done =
      least_busy()->book(now, static_cast<Micros>(worker_in_us));
  const Micros proto_done =
      protocol_.book(in_done, static_cast<Micros>(protocol_us));
  Micros done = proto_done;
  for (const double bucket_us : out_stage) {
    if (bucket_us <= 0.5) continue;
    done = std::max(
        done, least_busy()->book(proto_done, static_cast<Micros>(bucket_us)));
  }

  if (outs.empty()) return {};
  release(std::move(outs), done);
  return {};
}

std::vector<net::Envelope> PbftPerfActor::tick(Micros now) {
  std::vector<net::Envelope> outs = inner_->tick(now);
  if (outs.empty()) return {};

  DistinctSignTracker signs;
  double worker_us = 0;
  double protocol_us = 0;
  for (const auto& out : outs) {
    if (static_cast<MsgType>(out.type) == MsgType::PrePrepare &&
        signs.first(out)) {
      const std::size_t k = pbft_batch_size(out.payload);
      worker_us += profile_.sign_us +
                   static_cast<double>(k) * profile_.hmac_us +
                   hash_cost(profile_, out.payload.size()) +
                   serde_cost(profile_, out.payload.size());
      protocol_us += profile_.proto_msg_us;
    }
  }
  const auto least_busy = [this] {
    return &*std::min_element(
        workers_.begin(), workers_.end(),
        [](const Resource& a, const Resource& b) {
          return a.busy_until < b.busy_until;
        });
  };
  const Micros w = least_busy()->book(now, static_cast<Micros>(worker_us));
  const Micros done = protocol_.book(w, static_cast<Micros>(protocol_us));
  release(std::move(outs), done);
  return {};
}

}  // namespace sbft::runtime
