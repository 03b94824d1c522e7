// Sharded keyspace benchmark — multi-group scale-out and 2PC overhead.
//
// Sweep: shards {1, 2, 4} x cross-shard fraction {0, 0.01, 0.1} at 1000
// closed-loop clients on BOTH stacks (virtual-time simulator, perf-modeled
// replicas, deterministic from the seed). `shards == 1` runs the same
// router code path, so the shard-count comparison is like-for-like; every
// cross > 0 run ends with the torn-write audit (load drains, a verifier
// reads every multi-op key group back through the protocol).
//
// Structural properties are hard-asserted (exit != 0):
//   * 4-shard throughput >= 2x 1-shard at cross=0 on both stacks — the
//     scale-out acceptance bar;
//   * every cross > 0 run checks > 0 groups and finds ZERO torn groups;
//   * every run completes operations; cross=0 runs sustain traffic;
//   * cross-shard runs actually commit distributed transactions;
//   * atomicity under faults, replayed as deterministic sim scenarios:
//     a coordinator crash before its commit decision (timeout-abort), a
//     coordinator crash after the decision is ordered (commit replay via
//     the termination protocol), and a Byzantine participant forging
//     prepare-ok votes with valid client MACs (outvoted by the f+1 rule).
// Absolute numbers are trajectory-only. Emits machine-readable JSON to the
// first non-flag argument (default BENCH_sharding.json).
//
//   --smoke   CI configuration: PBFT only, shards {1,4}, cross {0, 0.1},
//             shorter windows.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "faults/shard_attack.hpp"
#include "runtime/sharded_cluster.hpp"
#include "runtime/workload/sim_driver.hpp"

using namespace sbft;
using namespace sbft::runtime;
using workload::LoadMode;
using workload::Options;
using workload::Report;
using workload::Stack;

namespace {

namespace kv = apps::kv;
using apps::KvOp;
using apps::KvStatus;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

[[nodiscard]] pbft::Config protocol_config() {
  pbft::Config config;
  config.n = 4;
  config.f = 1;
  // Small batches + a tight timeout: batch-fill wait would otherwise
  // scale inversely with per-shard client count and mask the scale-out
  // (4 shards see 250 clients each, not 1000).
  config.batch_max = 100;
  config.batch_timeout_us = 2'000;
  config.checkpoint_interval = 50;
  config.watermark_window = 400;
  config.pipeline_depth = 8;
  config.request_timeout_us = 2'000'000;  // saturation must not trigger VCs
  return config;
}

void print_row(const Options& options, const Report& report) {
  std::printf(
      "%-9s %3u %5.2f %12.0f %9.2f %9.2f %8llu %8llu %8llu %6llu/%llu  %s\n",
      to_string(options.stack), options.shards, options.cross_shard_fraction,
      report.ops_per_sec, report.mean_latency_ms,
      static_cast<double>(report.p99_us) / 1000.0,
      static_cast<unsigned long long>(report.sharding.cross_shard_tx),
      static_cast<unsigned long long>(report.sharding.tx_commits),
      static_cast<unsigned long long>(report.sharding.tx_aborts),
      static_cast<unsigned long long>(report.sharding.torn_groups),
      static_cast<unsigned long long>(report.sharding.groups_checked),
      report.sustained ? "sustained" : "STALLED");
  std::fflush(stdout);
}

// --------------------------------------------------- fault scenarios
//
// Deterministic single-transaction replays of the coordinator-crash and
// Byzantine-participant cases on a 2-shard sim cluster: the sweep above
// proves atomicity under load, these prove it at exact protocol points.

[[nodiscard]] Bytes val(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// i-th distinct key (by search order) living on `target` of `shards`.
[[nodiscard]] Bytes key_on_shard(std::uint32_t shards, std::uint32_t target,
                                 std::uint64_t skip = 0) {
  for (std::uint64_t i = 0;; ++i) {
    Bytes k = kv::encode_key(i);
    if (kv::shard_of(k, shards) != target) continue;
    if (skip == 0) return k;
    --skip;
  }
}

[[nodiscard]] kv::MultiOp multi_put(std::vector<Bytes> keys,
                                    const Bytes& value) {
  kv::MultiOp multi;
  for (auto& k : keys) {
    multi.subs.push_back(kv::SubOp{KvOp::Put, std::move(k), {}, value});
  }
  return multi;
}

[[nodiscard]] std::optional<KvStatus> status_of(
    const std::optional<Bytes>& result) {
  if (!result) return std::nullopt;
  const auto reply = kv::decode_reply(*result);
  if (!reply) return std::nullopt;
  return reply->status;
}

/// Whole-group value agreement: both keys must read back `want` (the
/// sharded torn-write criterion, applied to one known group).
[[nodiscard]] bool reads_back(ShardedPbftCluster& cluster, ClientId id,
                              const Bytes& key, const Bytes& want) {
  const auto got = cluster.get(id, key);
  return got.has_value() && got->status == KvStatus::Ok && got->value == want;
}

constexpr ClientId kClientA = kFirstClientId;
constexpr ClientId kClientB = kFirstClientId + 1;

/// Coordinator dies with its prepares ordered but no decision: the home
/// lease must presume-abort and a contending client's termination
/// protocol must unwind every lock — no key of the dead transaction's
/// write set may survive anywhere.
[[nodiscard]] bool coordinator_crash_before_decision() {
  ShardedClusterOptions options;
  options.shards = 2;
  options.seed = 16;
  options.router.tx_expiry_ops = 3;
  options.router.busy_retries = 8;
  ShardedPbftCluster cluster(options);
  cluster.add_client(kClientA);
  cluster.add_client(kClientB);

  const Bytes k0 = key_on_shard(2, 0);
  const Bytes k1 = key_on_shard(2, 1);
  const Bytes k2 = key_on_shard(2, 1, 1);  // only in A's write set

  cluster.submit(kClientA,
                 kv::encode_multi(multi_put({k0, k1, k2}, val("AAAA"))));
  cluster.crash_client(kClientA);
  cluster.run_for(5'000'000);

  bool committed = false;
  for (int i = 0; i < 20 && !committed; ++i) {
    committed = status_of(cluster.execute(
                    kClientB,
                    kv::encode_multi(multi_put({k0, k1}, val("BBBB"))))) ==
                KvStatus::TxCommitted;
  }
  if (!committed) return false;
  const auto got2 = cluster.get(kClientB, k2);
  return reads_back(cluster, kClientB, k0, val("BBBB")) &&
         reads_back(cluster, kClientB, k1, val("BBBB")) &&
         got2.has_value() && got2->status == KvStatus::NotFound &&
         cluster.check_agreement();
}

/// Coordinator dies right after TxCommit is ordered at home (the commit
/// point): a blocked client must replay the durable decision at the
/// other participant — the transaction completes, not unwinds.
[[nodiscard]] bool coordinator_crash_after_decision() {
  using PbftPhase = shard::Router<pbft::Client>::Phase;
  ShardedClusterOptions options;
  options.shards = 2;
  options.seed = 17;
  options.router.busy_retries = 8;
  ShardedPbftCluster cluster(options);
  auto& router_a = cluster.add_client(kClientA);
  auto& router_b = cluster.add_client(kClientB);

  const Bytes kh = key_on_shard(2, 0);
  const Bytes k1 = key_on_shard(2, 1);
  const Bytes k2 = key_on_shard(2, 1, 1);

  cluster.submit(kClientA,
                 kv::encode_multi(multi_put({kh, k1, k2}, val("AAAA"))));
  if (!cluster.run_until(
          [&] { return router_a.phase() == PbftPhase::DecideHome; },
          10'000'000)) {
    return false;
  }
  cluster.crash_client(kClientA);
  cluster.run_for(10'000'000);

  bool committed = false;
  for (int i = 0; i < 20 && !committed; ++i) {
    committed = status_of(cluster.execute(kClientB,
                                          kv::encode_put(k1, val("BBBB")))) ==
                KvStatus::Ok;
  }
  return committed && router_b.stats().blocker_commit_replays >= 1 &&
         reads_back(cluster, kClientB, kh, val("AAAA")) &&
         reads_back(cluster, kClientB, k2, val("AAAA")) &&
         reads_back(cluster, kClientB, k1, val("BBBB")) &&
         cluster.check_agreement();
}

/// One participant replica forges every failed vote into prepare-ok
/// (valid client MAC): the per-shard f+1 matching-reply quorum must keep
/// the honest CasMismatch outcome, and honest commits must still work.
[[nodiscard]] bool byzantine_participant_outvoted() {
  ShardedClusterOptions options;
  options.shards = 2;
  options.seed = 18;
  ShardedPbftCluster cluster(options);
  cluster.add_client(kClientA);

  auto& group = cluster.group(1);
  auto forger = std::make_shared<faults::KvReplyForger>(
      group.replica_actor(3), group.directory());
  group.harness().replace_actor(principal::pbft_replica(3), forger);

  const Bytes k0 = key_on_shard(2, 0);
  const Bytes k1 = key_on_shard(2, 1);
  if (cluster.put(kClientA, k1, val("actual")) != KvStatus::Ok) return false;

  kv::MultiOp multi;
  multi.subs.push_back(kv::SubOp{KvOp::Put, k0, {}, val("torn?")});
  multi.subs.push_back(kv::SubOp{KvOp::Cas, k1, val("stale"), val("new")});
  if (status_of(cluster.execute(kClientA, kv::encode_multi(multi))) !=
      KvStatus::CasMismatch) {
    return false;
  }
  const auto got0 = cluster.get(kClientA, k0);
  const bool no_torn_write =
      got0.has_value() && got0->status == KvStatus::NotFound;

  return forger->forged() > 0 && no_torn_write &&
         status_of(cluster.execute(
             kClientA, kv::encode_multi(multi_put({k0, k1}, val("ok"))))) ==
             KvStatus::TxCommitted &&
         cluster.check_agreement();
}

struct FaultScenario {
  const char* name;
  bool (*run)();
  bool passed{false};
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sharding.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] != '-') {
      json_path = argv[i];
    }
  }

  const Micros warmup = smoke ? 100'000 : 150'000;
  const Micros measure = smoke ? 200'000 : 400'000;
  const std::vector<Stack> stacks =
      smoke ? std::vector<Stack>{Stack::Pbft}
            : std::vector<Stack>{Stack::Pbft, Stack::Splitbft};
  const std::vector<std::uint32_t> shard_counts =
      smoke ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4};
  const std::vector<double> cross_fractions =
      smoke ? std::vector<double>{0.0, 0.1}
            : std::vector<double>{0.0, 0.01, 0.1};

  std::printf("sharding — %s configuration, 1000 closed-loop clients\n",
              smoke ? "smoke" : "full");
  std::printf("%-9s %3s %5s %12s %9s %9s %8s %8s %8s %8s\n", "stack", "sh",
              "cross", "ops/s", "mean-ms", "p99-ms", "xtx", "commits",
              "aborts", "torn");

  std::vector<std::string> json_runs;
  // (stack, shards, cross*100) -> ops/s
  std::map<std::tuple<int, std::uint32_t, int>, double> ops;

  for (const Stack stack : stacks) {
    for (const std::uint32_t shards : shard_counts) {
      for (const double cross : cross_fractions) {
        Options options;
        options.stack = stack;
        options.mode = LoadMode::Closed;
        options.clients = 1000;
        options.shards = shards;
        options.cross_shard_fraction = cross;
        options.multi_keys = 2;
        options.multi_groups = smoke ? 64 : 256;
        // Fat values push one group deep into saturation (per-KiB
        // hash/serde/AEAD perf-model costs dominate): the sweep then
        // measures group capacity, not the closed-loop latency floor.
        options.value_min_bytes = 4096;
        options.value_max_bytes = 4096;
        options.protocol = protocol_config();
        options.warmup_us = warmup;
        options.measure_us = measure;
        const Report report = workload::run_sim_workload(options);
        print_row(options, report);
        json_runs.push_back(workload::report_json(options, report));
        ops[{static_cast<int>(stack), shards,
             static_cast<int>(cross * 100)}] = report.ops_per_sec;

        expect(report.completed_ops > 0, "every run must complete ops");
        if (cross == 0.0) {
          expect(report.sustained, "cross=0 runs must sustain traffic");
          expect(report.sharding.cross_shard_tx == 0,
                 "cross=0 must drive no distributed transactions");
        } else {
          expect(report.sharding.groups_checked > 0,
                 "the torn-write audit must check groups");
          expect(report.sharding.torn_groups == 0,
                 "no multi-op group may read back torn");
          if (shards > 1) {
            expect(report.sharding.cross_shard_tx > 0,
                   "cross>0 on >1 shard must drive distributed txs");
            expect(report.sharding.tx_commits > 0,
                   "distributed transactions must commit under load");
          } else {
            expect(report.sharding.single_shard_multi > 0,
                   "1-shard multis must bypass 2PC");
          }
        }
      }
    }
  }

  // The acceptance bar: 4 independent groups must scale the disjoint
  // workload by at least 2x over one group, same driver, same clients.
  double speedup_pbft = 0;
  double speedup_split = 0;
  for (const Stack stack : stacks) {
    const double one = ops[{static_cast<int>(stack), 1, 0}];
    const double four = ops[{static_cast<int>(stack), 4, 0}];
    const double speedup = one > 0 ? four / one : 0;
    (stack == Stack::Pbft ? speedup_pbft : speedup_split) = speedup;
    std::printf("%s 4-shard vs 1-shard speedup at cross=0: %.2fx\n",
                workload::to_string(stack), speedup);
    expect(speedup >= 2.0,
           "4 shards must deliver >= 2x the 1-shard throughput at cross=0");
  }

  // Fault replays: atomicity at exact protocol points.
  FaultScenario scenarios[] = {
      {"coordinator_crash_before_decision", coordinator_crash_before_decision},
      {"coordinator_crash_after_decision", coordinator_crash_after_decision},
      {"byzantine_participant_outvoted", byzantine_participant_outvoted},
  };
  for (auto& scenario : scenarios) {
    scenario.passed = scenario.run();
    std::printf("fault scenario %-36s %s\n", scenario.name,
                scenario.passed ? "ok" : "FAILED");
    expect(scenario.passed, scenario.name);
  }

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"sharding\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"speedup_4shard_pbft\": " << speedup_pbft
       << ",\n  \"speedup_4shard_splitbft\": " << speedup_split
       << ",\n  \"fault_scenarios\": {";
  for (std::size_t i = 0; i < std::size(scenarios); ++i) {
    json << (i ? ", " : "") << "\"" << scenarios[i].name
         << "\": " << (scenarios[i].passed ? "true" : "false");
  }
  json << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < json_runs.size(); ++i) {
    json << "    " << json_runs[i] << (i + 1 < json_runs.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"structural_failures\": " << failures << "\n}\n";
  json.close();
  std::printf("wrote %s\n", json_path.c_str());

  return failures == 0 ? 0 : 1;
}
