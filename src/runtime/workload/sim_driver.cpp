#include "runtime/workload/sim_driver.hpp"

#include <array>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "apps/ledger.hpp"

namespace sbft::runtime::workload {
namespace {

/// Wraps every replica of `group` in the perf model. Returns the leader's
/// SplitBFT perf actor (its ecall accounting is Figure 4); PBFT has none.
const SplitPerfActor* wrap_perf(PbftCluster& group, std::size_t workers,
                                const SimModel& model) {
  for (ReplicaId r = 0; r < group.config().n; ++r) {
    auto actor = std::make_shared<PbftPerfActor>(
        group.harness(), group.replica_actor(r), model.profile,
        std::max<std::size_t>(1, workers));
    pbft::Replica* replica = &group.replica(r);
    actor->set_auth_stats([replica] { return replica->auth().stats(); });
    if (model.app == App::Ledger) {
      actor->set_block_counter([replica] {
        return dynamic_cast<const apps::Ledger&>(replica->app()).height();
      });
    }
    group.harness().replace_actor(principal::pbft_replica(r),
                                  std::move(actor));
  }
  return nullptr;
}

const SplitPerfActor* wrap_perf(SplitbftCluster& group, std::size_t workers,
                                const SimModel& model) {
  const SplitPerfActor* leader = nullptr;
  for (ReplicaId r = 0; r < group.config().n; ++r) {
    auto actor = std::make_shared<SplitPerfActor>(
        group.harness(), group.replica_actor(r), model.profile,
        model.single_ecall_thread, /*exec_workers=*/workers);
    splitbft::SplitbftReplica* replica = &group.replica(r);
    actor->set_auth_stats(Compartment::Preparation, [replica] {
      return replica->prep().auth().stats();
    });
    actor->set_auth_stats(Compartment::Confirmation, [replica] {
      return replica->conf().auth().stats();
    });
    actor->set_auth_stats(Compartment::Execution, [replica] {
      return replica->exec().auth().stats();
    });
    if (model.app == App::Ledger) {
      actor->set_block_counter(
          [replica] { return replica->block_store().size(); });
    }
    if (r == 0) leader = actor.get();
    for (const principal::Id id : group.replica_principals(r)) {
      group.harness().replace_actor(id, actor);
    }
  }
  return leader;
}

using EcallSnapshot = std::array<EcallAccounting, kNumCompartments>;

[[nodiscard]] EcallSnapshot ecall_snapshot(const SplitPerfActor& actor) {
  EcallSnapshot snap;
  for (std::size_t c = 0; c < kNumCompartments; ++c) {
    snap[c] = actor.ecall_stats(static_cast<Compartment>(c));
  }
  return snap;
}

/// Ecall time between two snapshots, per completed request and per call.
[[nodiscard]] EcallBreakdown ecall_breakdown(const EcallSnapshot& before,
                                             const EcallSnapshot& after,
                                             std::uint64_t completed_ops) {
  const double ops =
      std::max<double>(1.0, static_cast<double>(completed_ops));
  const auto per_req = [&](Compartment c) {
    const auto i = static_cast<std::size_t>(c);
    return static_cast<double>(after[i].total_us - before[i].total_us) / ops;
  };
  const auto per_call = [&](Compartment c) {
    const auto i = static_cast<std::size_t>(c);
    const std::uint64_t calls = after[i].calls - before[i].calls;
    return calls ? static_cast<double>(after[i].total_us -
                                       before[i].total_us) /
                       static_cast<double>(calls)
                 : 0.0;
  };
  EcallBreakdown e;
  e.prep_us_per_req = per_req(Compartment::Preparation);
  e.conf_us_per_req = per_req(Compartment::Confirmation);
  e.exec_us_per_req = per_req(Compartment::Execution);
  e.prep_mean_ecall_us = per_call(Compartment::Preparation);
  e.conf_mean_ecall_us = per_call(Compartment::Confirmation);
  e.exec_mean_ecall_us = per_call(Compartment::Execution);
  return e;
}

[[nodiscard]] std::uint64_t admission_rejects(PbftCluster& group) {
  std::uint64_t total = 0;
  for (ReplicaId r = 0; r < group.config().n; ++r) {
    total += group.replica(r).admission_rejects();
  }
  return total;
}

[[nodiscard]] std::uint64_t admission_rejects(SplitbftCluster& group) {
  std::uint64_t total = 0;
  for (ReplicaId r = 0; r < group.config().n; ++r) {
    total += group.replica(r).broker().admission_rejects();
  }
  return total;
}

/// Per-client pacing state; submissions and completions go through the
/// ShardedCluster's router clients and their result callbacks.
struct Slot {
  ClientId id{0};
  std::unique_ptr<OpGenerator> gen;
  Rng rng{0};
  bool measuring{false};
  bool stopped{false};
  Micros measured_from{0};
  std::deque<std::pair<Micros, GeneratedOp>> queued;
};

template <typename Stack>
class SimLoad {
 public:
  SimLoad(const Options& options, const SimModel& model)
      : options_(options) {
    ShardedClusterOptions copts;
    copts.shards = std::max<std::uint32_t>(options.shards, 1);
    copts.config = options.protocol;
    copts.seed = options.seed;
    copts.link_params.min_delay_us = 60;
    copts.link_params.max_delay_us = 140;
    copts.app = model.app;
    cluster_ = std::make_unique<ShardedCluster<Stack>>(copts);
    for (std::uint32_t s = 0; s < cluster_->shards(); ++s) {
      const SplitPerfActor* leader =
          wrap_perf(cluster_->group(s), options_.workers, model);
      if (s == 0) leader_ = leader;
    }
  }

  [[nodiscard]] Report run() {
    add_load_clients();
    start_staggered();
    cluster_->run_for(options_.warmup_us);
    for (auto& slot : slots_) slot->measuring = true;
    const EcallSnapshot ecalls_before =
        leader_ ? ecall_snapshot(*leader_) : EcallSnapshot{};
    bool sustained = true;
    std::uint64_t prev = hist_.count();
    for (int quarter = 0; quarter < 4; ++quarter) {
      cluster_->run_for(options_.measure_us / 4);
      const std::uint64_t now_count = hist_.count();
      if (now_count == prev) sustained = false;
      prev = now_count;
    }
    for (auto& slot : slots_) slot->measuring = false;

    Report report;
    summarize_into(hist_, options_.measure_us, report);
    report.sustained = sustained && report.completed_ops > 0;
    if (leader_) {
      report.leader_ecalls = ecall_breakdown(
          ecalls_before, ecall_snapshot(*leader_), report.completed_ops);
    }
    for (const auto& slot : slots_) {
      add_router_stats(cluster_->router(slot->id), report);
    }
    for (std::uint32_t s = 0; s < cluster_->shards(); ++s) {
      report.admission_rejects += admission_rejects(cluster_->group(s));
    }
    if (options_.cross_shard_fraction > 0 && options_.multi_keys >= 2) {
      audit_atomicity(report);
    }
    return report;
  }

 private:
  void submit(Slot& slot, GeneratedOp op, Micros measured_from) {
    slot.measured_from = measured_from;
    cluster_->submit(slot.id, std::move(op.op), op.read_only);
  }

  void on_complete(const std::shared_ptr<Slot>& slot, Micros now) {
    if (slot->measuring) hist_.record(now - slot->measured_from);
    if (slot->stopped) return;
    if (options_.mode == LoadMode::Open) {
      if (!slot->queued.empty()) {
        auto [arrived, op] = std::move(slot->queued.front());
        slot->queued.pop_front();
        // Open loop measures from ARRIVAL: queueing delay stays visible.
        submit(*slot, std::move(op), arrived);
      }
      return;
    }
    const Micros think = exponential_us(slot->rng, options_.think_time_us);
    if (think == 0) {
      submit(*slot, slot->gen->next(), now);
      return;
    }
    cluster_->scheduler().after(think, [this, slot] {
      if (slot->stopped) return;
      const Micros t = cluster_->now();
      submit(*slot, slot->gen->next(), t);
    });
  }

  void schedule_arrival(const std::shared_ptr<Slot>& slot) {
    const Micros gap = std::max<Micros>(
        1, exponential_us(slot->rng, options_.interarrival_us));
    cluster_->scheduler().after(gap, [this, slot] {
      if (slot->stopped) return;
      const Micros t = cluster_->now();
      if (!cluster_->router(slot->id).in_flight()) {
        submit(*slot, slot->gen->next(), t);
      } else if (slot->queued.size() < kMaxQueued) {
        slot->queued.emplace_back(t, slot->gen->next());
      }
      // else: shed load (open-loop back-pressure)
      schedule_arrival(slot);
    });
  }

  void add_load_clients() {
    slots_.reserve(options_.clients);
    for (std::uint32_t i = 0; i < options_.clients; ++i) {
      auto slot = std::make_shared<Slot>();
      slot->id = kFirstClientId + i;
      slot->gen = std::make_unique<OpGenerator>(
          options_, options_.seed * 1'000'003 + i);
      slot->rng = Rng((options_.seed * 1'000'003 + i) ^ 0x10adc11e47ULL);
      cluster_->add_client(slot->id, /*retry_us=*/4'000'000,
                           [this, slot](Bytes, Micros now) {
                             on_complete(slot, now);
                           });
      slots_.push_back(std::move(slot));
    }
  }

  void start_staggered() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      auto slot = slots_[i];
      cluster_->scheduler().at(
          cluster_->now() + static_cast<Micros>(i * 13 + 1), [this, slot] {
            if (options_.mode == LoadMode::Open) {
              schedule_arrival(slot);
            } else {
              submit(*slot, slot->gen->next(), cluster_->now());
            }
          });
    }
  }

  /// Stops the load, drains in-flight transactions, and reads back every
  /// multi-op key group through the protocol.
  void audit_atomicity(Report& report) {
    for (auto& slot : slots_) slot->stopped = true;
    (void)cluster_->run_until(
        [&] {
          for (const auto& slot : slots_) {
            if (cluster_->router(slot->id).in_flight()) return false;
          }
          return true;
        },
        30'000'000);

    const ClientId verifier = kFirstClientId + options_.clients;
    cluster_->add_client(verifier, /*retry_us=*/4'000'000);
    audit_groups(
        options_,
        [&](Bytes op) { return cluster_->execute(verifier, std::move(op)); },
        report.sharding);
  }

  static constexpr std::size_t kMaxQueued = 256;

  Options options_;
  std::unique_ptr<ShardedCluster<Stack>> cluster_;
  const SplitPerfActor* leader_{nullptr};
  std::vector<std::shared_ptr<Slot>> slots_;
  LatencyHistogram hist_;
};

}  // namespace

Options paper_options(Stack stack, bool batched) {
  Options options;
  options.stack = stack;
  options.key_skew = 0;
  options.get_fraction = 0;
  options.value_min_bytes = 10;
  options.value_max_bytes = 10;
  options.workers = stack == Stack::Pbft ? 4 : 1;
  options.protocol.batch_max = batched ? 200 : 1;
  options.protocol.batch_timeout_us = 10'000;
  options.protocol.checkpoint_interval = batched ? 50 : 500;
  options.protocol.watermark_window = batched ? 400 : 4000;
  // Saturation must not trigger view changes.
  options.protocol.request_timeout_us = 2'000'000;
  return options;
}

Report run_sim_workload(const Options& options, const SimModel& model) {
  if (options.stack == Stack::Pbft) {
    SimLoad<PbftShardStack> load(options, model);
    return load.run();
  }
  SimLoad<SplitbftShardStack> load(options, model);
  return load.run();
}

}  // namespace sbft::runtime::workload
