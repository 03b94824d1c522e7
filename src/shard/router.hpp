// Shard router: N per-shard BFT client engines behind one submit().
//
// The keyspace is hash-partitioned over N independent BFT groups
// (`kv::shard_of`). Single-key ops go straight to their home shard
// through an unmodified `pbft::Client` / `splitbft::SplitClient`, so
// they keep every single-group optimization (batching, pipelining, the
// PR-5 read fast path). Multi-key `kv::MultiOp`s that span shards run a
// client-side two-phase commit whose prepare/commit/abort records are
// ordered ops inside each participant shard — every phase is
// BFT-replicated, so the protocol state survives replica faults and the
// per-shard reply cache makes retransmitted decisions idempotent.
//
// Commit protocol (home-shard decision authority):
//  1. Prepare: the write set is split per shard; each participant
//     validates + locks it. The lowest participant shard is the *home*;
//     its prepare carries the expiry lease.
//  2. Decide: if every vote is Ok, the coordinator orders TxCommit in
//     the home shard. That record IS the commit point — until it
//     executes, no shard has applied anything; after it, the decision
//     is durable in a BFT log and replayable.
//  3. Fanout: TxCommit (or TxAbort) to the remaining participants.
//
// A crashed coordinator cannot wedge the system: the home shard
// presume-aborts the transaction after `tx_expiry_ops` ordered ops
// (deterministic, so replicas agree), and any client blocked on a stale
// lock runs the termination protocol — TxResolve at the blocker's home,
// then replaying the decision at the shard holding the lock. Atomicity
// holds against crashed coordinators and (via each shard's vote quorum)
// up to f Byzantine replicas per shard; a Byzantine *client* can abort
// or stall only transactions it could already abort as a coordinator.
#pragma once

#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "apps/kv_store.hpp"
#include "common/clock.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace sbft::shard {

/// An envelope plus the shard group whose network must carry it. Shards
/// are fully independent networks (their principal id spaces coincide),
/// so the tag is load-bearing, not advisory.
struct Routed {
  std::uint32_t shard{0};
  net::Envelope env;
};

/// Seed-derived per-shard provisioning: every process of a multi-group
/// deployment (TCP replica, loadgen, run_cluster.py) derives shard `s`'s
/// keys from `shard_seed(deployment_seed, s)`, so groups have unrelated key
/// material without any distribution channel (splitmix64 finalizer). A
/// one-group deployment keeps the deployment seed itself
/// (workload::shard_options); the simulator's ShardedCluster derives every
/// group's seed here, whatever the group count.
[[nodiscard]] constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                                 std::uint32_t shard) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (shard + 1ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct RouterOptions {
  std::uint32_t shards{1};
  /// Home-shard lease: a prepared transaction is presume-aborted after
  /// this many further ordered ops execute at home.
  std::uint32_t tx_expiry_ops{2000};
  /// How often a TxBusy op is retried after resolving the blocker.
  std::uint32_t busy_retries{4};
};

/// Per-shard split of a multi-key batch. `home` is the decision
/// authority: the lowest participating shard, so every honest client
/// derives the same home for the same write set.
struct TxPlan {
  std::map<std::uint32_t, std::vector<apps::kv::SubOp>> by_shard;
  std::uint32_t home{0};
};
[[nodiscard]] std::optional<TxPlan> plan_multi(const apps::kv::MultiOp& multi,
                                               std::uint32_t shards);

struct RouterStats {
  std::uint64_t single_key_ops{0};
  std::uint64_t multi_ops{0};
  std::uint64_t single_shard_multi{0};  // executed as one ordered op
  std::uint64_t cross_shard_tx{0};
  std::uint64_t tx_commits{0};
  std::uint64_t tx_aborts_vote{0};     // CAS/NotFound vote failures
  std::uint64_t tx_aborts_busy{0};     // gave up on a contended lock
  std::uint64_t tx_aborts_expired{0};  // home lease expired before commit
  std::uint64_t busy_retries{0};
  std::uint64_t resolves{0};
  std::uint64_t blocker_commit_replays{0};
  std::uint64_t blocker_abort_replays{0};
};

/// One logical client over N shard groups. Engine is `pbft::Client` or
/// `splitbft::SplitClient` (same closed-loop surface); the router itself
/// is closed-loop: one submit() until the matching on_reply() result.
template <typename Engine>
class Router {
 public:
  /// Coordinator phase, exposed so fault tests can stage crashes at
  /// exact protocol points (e.g. after the home decision is ordered but
  /// before the commit fanout).
  enum class Phase : std::uint8_t {
    Idle,
    Single,       // single-key / opaque / single-shard-multi pass-through
    Prepare,      // 2PC phase 1 outstanding
    DecideHome,   // TxCommit ordering at home (the commit point)
    AbortHome,    // TxAbort ordering at home
    CommitFanout,
    AbortFanout,
    ResolveBlocker,   // TxResolve at the blocker's home shard
    CleanupBlocker,   // replay the blocker's decision where we hit it
  };

  Router(std::vector<std::unique_ptr<Engine>> engines, RouterOptions options)
      : options_(options), engines_(std::move(engines)) {
    assert(!engines_.empty());
    assert(engines_.size() == options_.shards);
    id_ = engines_[0]->id();
  }

  [[nodiscard]] ClientId id() const noexcept { return id_; }
  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] apps::kv::TxId current_txid() const noexcept { return txid_; }
  [[nodiscard]] bool in_flight() const noexcept {
    return phase_ != Phase::Idle;
  }
  [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Engine& engine(std::uint32_t shard) { return *engines_[shard]; }
  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(engines_.size());
  }

  [[nodiscard]] std::uint64_t fast_reads() const noexcept {
    std::uint64_t total = 0;
    for (const auto& e : engines_) total += e->fast_reads();
    return total;
  }
  [[nodiscard]] std::uint64_t read_fallbacks() const noexcept {
    std::uint64_t total = 0;
    for (const auto& e : engines_) total += e->read_fallbacks();
    return total;
  }

  /// Coordinator-side 2PC state, for GC bounds tests: everything must
  /// return to zero once the in-flight operation completes.
  struct GcFootprint {
    std::size_t active_tx{0};
    std::size_t waiting_shards{0};
    std::size_t prepared_shards{0};
  };
  [[nodiscard]] GcFootprint gc_footprint() const noexcept {
    GcFootprint fp;
    fp.active_tx = phase_ == Phase::Idle ? 0 : 1;
    fp.waiting_shards = waiting_.size();
    fp.prepared_shards = prepared_.size();
    return fp;
  }

  /// Starts one operation (single-key, Multi, or anything else — opaque
  /// bytes fall through to shard 0). Must not be called while in flight.
  [[nodiscard]] std::vector<Routed> submit(Bytes operation, Micros now,
                                           bool read_only = false) {
    assert(phase_ == Phase::Idle);
    original_op_ = std::move(operation);
    original_read_only_ = read_only;
    busy_attempts_ = 0;
    switch (apps::kv::classify(original_op_)) {
      case apps::kv::OpKind::SingleKey:
        ++stats_.single_key_ops;
        break;
      case apps::kv::OpKind::Multi:
        ++stats_.multi_ops;
        break;
      default:
        ++stats_.single_key_ops;  // opaque pass-through
        break;
    }
    return start_op(now);
  }

  /// Feeds a reply that arrived on `shard`'s network. Returns the final
  /// result exactly once per submit(); `out` receives protocol traffic
  /// (engine retransmits/fallbacks and 2PC phase transitions).
  [[nodiscard]] std::optional<Bytes> on_reply(std::uint32_t shard,
                                              const net::Envelope& env,
                                              Micros now,
                                              std::vector<Routed>& out) {
    std::vector<net::Envelope> eng_out;
    auto result = engines_[shard]->on_reply(env, now, eng_out);
    for (auto& e : eng_out) out.push_back(Routed{shard, std::move(e)});
    if (!result) return std::nullopt;
    return on_engine_result(shard, *std::move(result), now, out);
  }

  /// Engine retransmission timers, all shards.
  [[nodiscard]] std::vector<Routed> tick(Micros now) {
    std::vector<Routed> out;
    for (std::uint32_t s = 0; s < engines_.size(); ++s) {
      for (auto& e : engines_[s]->tick(now)) {
        out.push_back(Routed{s, std::move(e)});
      }
    }
    return out;
  }

 private:
  using KvStatus = apps::KvStatus;
  using TxId = apps::kv::TxId;

  void submit_on(std::uint32_t shard, Bytes op, Micros now,
                 std::vector<Routed>& out, bool read_only = false) {
    for (auto& e : engines_[shard]->submit(std::move(op), now, read_only)) {
      out.push_back(Routed{shard, std::move(e)});
    }
  }

  [[nodiscard]] std::vector<Routed> start_op(Micros now) {
    std::vector<Routed> out;
    start_op(now, out);
    return out;
  }

  void start_op(Micros now, std::vector<Routed>& out) {
    const auto kind = apps::kv::classify(original_op_);
    if (kind == apps::kv::OpKind::Multi) {
      const auto multi = apps::kv::decode_multi(original_op_);
      auto plan = multi ? plan_multi(*multi, shards()) : std::nullopt;
      if (plan && plan->by_shard.size() > 1) {
        start_tx(*std::move(plan), now, out);
        return;
      }
      if (plan && busy_attempts_ == 0) ++stats_.single_shard_multi;
      phase_ = Phase::Single;
      single_shard_ = plan ? plan->home : 0;
      submit_on(single_shard_, original_op_, now, out);
      return;
    }
    std::uint32_t target = 0;
    if (const auto key = apps::kv::key_of(original_op_)) {
      target = apps::kv::shard_of(*key, shards());
    }
    phase_ = Phase::Single;
    single_shard_ = target;
    submit_on(target, original_op_, now, out, original_read_only_);
  }

  void start_tx(TxPlan plan, Micros now, std::vector<Routed>& out) {
    if (busy_attempts_ == 0) ++stats_.cross_shard_tx;
    plan_ = std::move(plan);
    // A retry after a busy-abort uses a fresh txid: the old one may have
    // an abort decision recorded anywhere.
    txid_ = TxId{id_, next_serial_++};
    phase_ = Phase::Prepare;
    waiting_.clear();
    prepared_.clear();
    failure_.reset();
    failure_value_.clear();
    blocker_.reset();
    for (const auto& [shard, subs] : plan_.by_shard) waiting_.insert(shard);
    for (const auto& [shard, subs] : plan_.by_shard) {
      submit_on(shard,
                apps::kv::encode_tx_prepare(txid_, plan_.home,
                                            shard == plan_.home,
                                            options_.tx_expiry_ops, subs),
                now, out);
    }
  }

  [[nodiscard]] std::optional<Bytes> on_engine_result(
      std::uint32_t shard, Bytes result, Micros now,
      std::vector<Routed>& out) {
    const auto reply = apps::kv::decode_reply(result);
    switch (phase_) {
      case Phase::Single: {
        if (reply && reply->status == KvStatus::TxBusy &&
            !original_read_only_ && busy_attempts_ < options_.busy_retries) {
          if (begin_resolve(shard, reply->value, result, now, out)) {
            return std::nullopt;
          }
        }
        return finish(std::move(result));
      }
      case Phase::Prepare: {
        waiting_.erase(shard);
        if (reply && reply->status == KvStatus::Ok) {
          prepared_.insert(shard);
        } else if (!failure_) {
          failure_ = reply ? reply->status : KvStatus::BadRequest;
          failure_value_ = reply ? reply->value : Bytes{};
          if (reply && reply->status == KvStatus::TxBusy) {
            blocker_ = apps::kv::decode_busy_info(reply->value);
            blocker_shard_ = shard;
          }
        }
        if (!waiting_.empty()) return std::nullopt;
        if (!failure_) {
          phase_ = Phase::DecideHome;
          submit_on(plan_.home, apps::kv::encode_tx_commit(txid_), now, out);
        } else {
          // The home shard always learns the abort (even if it voted
          // no and holds nothing): the recorded decision is what makes
          // TxResolve answers for this txid consistent.
          phase_ = Phase::AbortHome;
          submit_on(plan_.home, apps::kv::encode_tx_abort(txid_), now, out);
        }
        return std::nullopt;
      }
      case Phase::DecideHome: {
        if (reply && reply->status == KvStatus::TxCommitted) {
          ++stats_.tx_commits;
          return enter_fanout(/*commit=*/true, now, out);
        }
        // The home lease expired and presume-aborted before our commit
        // was ordered: nothing has been applied anywhere, unwind.
        ++stats_.tx_aborts_expired;
        failure_ = KvStatus::TxAborted;
        failure_value_.clear();
        return enter_fanout(/*commit=*/false, now, out);
      }
      case Phase::AbortHome:
        return enter_fanout(/*commit=*/false, now, out);
      case Phase::CommitFanout: {
        waiting_.erase(shard);
        if (!waiting_.empty()) return std::nullopt;
        return finish(apps::kv::encode_reply(KvStatus::TxCommitted));
      }
      case Phase::AbortFanout: {
        waiting_.erase(shard);
        if (!waiting_.empty()) return std::nullopt;
        if (failure_ == KvStatus::TxBusy && blocker_ &&
            busy_attempts_ < options_.busy_retries) {
          const Bytes saved = failure_value_;
          Bytes final_reply =
              apps::kv::encode_reply(*failure_, failure_value_);
          if (begin_resolve(blocker_shard_, saved, final_reply, now, out)) {
            return std::nullopt;
          }
        }
        return finish_failure();
      }
      case Phase::ResolveBlocker: {
        ++stats_.resolves;
        if (reply && (reply->status == KvStatus::TxCommitted ||
                      reply->status == KvStatus::TxAborted)) {
          const bool commit = reply->status == KvStatus::TxCommitted;
          if (resolve_target_ != blocker_->home_shard) {
            // Replay the durable decision at the shard still holding
            // the lock, then retry our own operation.
            (commit ? stats_.blocker_commit_replays
                    : stats_.blocker_abort_replays)++;
            phase_ = Phase::CleanupBlocker;
            submit_on(resolve_target_,
                      commit ? apps::kv::encode_tx_commit(blocker_->blocker)
                             : apps::kv::encode_tx_abort(blocker_->blocker),
                      now, out);
            return std::nullopt;
          }
          start_op(now, out);
          return std::nullopt;
        }
        // TxUndecided: the blocker's home lease is still live — the
        // coordinator may yet commit, so the lock must stand. Give up
        // with the original busy reply; the caller retries as new work.
        ++stats_.tx_aborts_busy;
        return finish(std::move(pending_failure_reply_));
      }
      case Phase::CleanupBlocker: {
        start_op(now, out);
        return std::nullopt;
      }
      case Phase::Idle:
        break;
    }
    return std::nullopt;
  }

  /// Arms the termination protocol for the blocker named in a TxBusy
  /// payload. False if the payload is malformed (caller fails the op).
  [[nodiscard]] bool begin_resolve(std::uint32_t observed_shard,
                                   const Bytes& busy_payload,
                                   Bytes failure_reply, Micros now,
                                   std::vector<Routed>& out) {
    auto info = apps::kv::decode_busy_info(busy_payload);
    if (!info || info->home_shard >= shards()) return false;
    blocker_ = info;
    ++busy_attempts_;
    ++stats_.busy_retries;
    pending_failure_reply_ = std::move(failure_reply);
    resolve_target_ = observed_shard;
    phase_ = Phase::ResolveBlocker;
    submit_on(info->home_shard,
              apps::kv::encode_tx_resolve(info->blocker), now, out);
    return true;
  }

  [[nodiscard]] std::optional<Bytes> enter_fanout(bool commit, Micros now,
                                                  std::vector<Routed>& out) {
    waiting_.clear();
    for (const auto shard : prepared_) {
      if (shard != plan_.home) waiting_.insert(shard);
    }
    if (waiting_.empty()) {
      if (commit) return finish(apps::kv::encode_reply(KvStatus::TxCommitted));
      if (failure_ == KvStatus::TxBusy && blocker_ &&
          busy_attempts_ < options_.busy_retries) {
        const Bytes saved = failure_value_;
        Bytes final_reply = apps::kv::encode_reply(*failure_, failure_value_);
        if (begin_resolve(blocker_shard_, saved, final_reply, now, out)) {
          return std::nullopt;
        }
      }
      return finish_failure();
    }
    phase_ = commit ? Phase::CommitFanout : Phase::AbortFanout;
    for (const auto shard : waiting_) {
      submit_on(shard,
                commit ? apps::kv::encode_tx_commit(txid_)
                       : apps::kv::encode_tx_abort(txid_),
                now, out);
    }
    return std::nullopt;
  }

  [[nodiscard]] Bytes finish_failure() {
    const KvStatus status = failure_.value_or(KvStatus::BadRequest);
    if (status == KvStatus::TxBusy) {
      ++stats_.tx_aborts_busy;
    } else if (status != KvStatus::TxAborted) {
      ++stats_.tx_aborts_vote;
    }
    return finish(apps::kv::encode_reply(status, failure_value_));
  }

  [[nodiscard]] Bytes finish(Bytes result) {
    phase_ = Phase::Idle;
    waiting_.clear();
    prepared_.clear();
    failure_.reset();
    failure_value_.clear();
    blocker_.reset();
    pending_failure_reply_.clear();
    original_op_.clear();
    return result;
  }

  RouterOptions options_;
  std::vector<std::unique_ptr<Engine>> engines_;
  ClientId id_{0};
  RouterStats stats_;

  Phase phase_{Phase::Idle};
  Bytes original_op_;
  bool original_read_only_{false};
  std::uint32_t single_shard_{0};
  std::uint32_t busy_attempts_{0};

  std::uint64_t next_serial_{1};
  TxId txid_{};
  TxPlan plan_;
  std::set<std::uint32_t> waiting_;
  std::set<std::uint32_t> prepared_;
  std::optional<KvStatus> failure_;
  Bytes failure_value_;
  std::optional<apps::kv::BusyInfo> blocker_;
  std::uint32_t blocker_shard_{0};
  std::uint32_t resolve_target_{0};
  Bytes pending_failure_reply_;
};

}  // namespace sbft::shard
