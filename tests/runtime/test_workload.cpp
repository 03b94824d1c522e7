// Workload-engine tests: generator properties, determinism, and small
// end-to-end load points over both stacks and both drivers.
#include <gtest/gtest.h>

#include <map>

#include "apps/kv_store.hpp"
#include "runtime/workload/sim_driver.hpp"
#include "runtime/workload/thread_driver.hpp"

namespace sbft::runtime::workload {
namespace {

TEST(ZipfGenerator, UniformWhenThetaZero) {
  ZipfGenerator zipf(100, 0.0);
  Rng rng(1);
  std::map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 20'000; ++i) ++counts[zipf.next(rng)];
  // Every rank in range, rough uniformity (each expected 200).
  for (const auto& [rank, count] : counts) {
    ASSERT_LT(rank, 100u);
    EXPECT_GT(count, 100u);
    EXPECT_LT(count, 400u);
  }
}

TEST(ZipfGenerator, SkewConcentratesOnHotKeys) {
  ZipfGenerator zipf(10'000, 0.99);
  Rng rng(2);
  std::map<std::uint64_t, std::uint64_t> counts;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_LT(rank, 10'000u);
    ++counts[rank];
  }
  // Rank 0 must be by far the hottest, and the top-10 ranks a large
  // fraction of all draws (YCSB-style head concentration).
  std::uint64_t top10 = 0;
  for (std::uint64_t r = 0; r < 10; ++r) {
    const auto it = counts.find(r);
    if (it != counts.end()) top10 += it->second;
  }
  EXPECT_GT(counts[0], static_cast<std::uint64_t>(kSamples) / 25);
  EXPECT_GT(top10, static_cast<std::uint64_t>(kSamples) / 5);
}

TEST(Workload, ExponentialHasRoughlyTheRequestedMean) {
  Rng rng(3);
  double sum = 0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(exponential_us(rng, 1'000));
  }
  const double mean = sum / kSamples;
  EXPECT_GT(mean, 900.0);
  EXPECT_LT(mean, 1'100.0);
  EXPECT_EQ(exponential_us(rng, 0), 0u);
}

TEST(Workload, OpStreamIsDeterministicPerSeed) {
  Options options;
  OpGenerator a(options, 77);
  OpGenerator b(options, 77);
  OpGenerator c(options, 78);
  bool diverged = false;
  for (int i = 0; i < 32; ++i) {
    const GeneratedOp oa = a.next();
    const GeneratedOp ob = b.next();
    EXPECT_EQ(oa.op, ob.op);
    EXPECT_EQ(oa.read_only, ob.read_only);
    // The tag must agree with the operation's own classification.
    EXPECT_EQ(oa.read_only, apps::kv::is_read_only(oa.op));
    if (oa.op != c.next().op) diverged = true;
  }
  EXPECT_TRUE(diverged);  // different seeds -> different streams
}

[[nodiscard]] Options small_point(Stack stack) {
  Options options;
  options.stack = stack;
  options.mode = LoadMode::Closed;
  options.clients = 24;
  options.protocol.n = 4;
  options.protocol.f = 1;
  options.protocol.batch_max = 8;
  options.protocol.pipeline_depth = 4;
  options.protocol.checkpoint_interval = 20;
  options.protocol.watermark_window = 100;
  options.protocol.request_timeout_us = 2'000'000;
  options.warmup_us = 50'000;
  options.measure_us = 200'000;
  options.seed = 9;
  return options;
}

TEST(SimWorkload, SustainsClosedLoopOnPbft) {
  const Report report = run_sim_workload(small_point(Stack::Pbft));
  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
  EXPECT_GT(report.p99_us, 0u);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_FALSE(report.histogram.empty());
}

TEST(SimWorkload, SustainsClosedLoopOnSplitbft) {
  const Report report = run_sim_workload(small_point(Stack::Splitbft));
  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
}

TEST(SimWorkload, DeterministicFromSeed) {
  const Options options = small_point(Stack::Pbft);
  const Report a = run_sim_workload(options);
  const Report b = run_sim_workload(options);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p95_us, b.p95_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.max_us, b.max_us);
}

TEST(SimWorkload, OpenLoopMeasuresFromArrival) {
  Options options = small_point(Stack::Pbft);
  options.mode = LoadMode::Open;
  options.clients = 32;
  options.interarrival_us = 20'000;
  const Report report = run_sim_workload(options);
  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
}

TEST(SimWorkload, ThinkTimeLowersOfferedLoad) {
  Options busy = small_point(Stack::Pbft);
  const Report busy_report = run_sim_workload(busy);
  Options idle = small_point(Stack::Pbft);
  idle.think_time_us = 50'000;
  const Report idle_report = run_sim_workload(idle);
  EXPECT_GT(busy_report.completed_ops, idle_report.completed_ops);
  EXPECT_TRUE(idle_report.sustained);
}

// The real ThreadNetwork driver: short wall-clock runs, structure-only
// assertions (wall-clock throughput is runner noise).
TEST(ThreadWorkload, CompletesOnPbft) {
  Options options = small_point(Stack::Pbft);
  options.clients = 16;
  options.warmup_us = 50'000;
  options.measure_us = 100'000;
  const Report report = run_thread_workload(options);
  EXPECT_GT(report.completed_ops, 0u);
}

TEST(ThreadWorkload, CompletesOnSplitbft) {
  Options options = small_point(Stack::Splitbft);
  options.clients = 16;
  options.warmup_us = 50'000;
  options.measure_us = 100'000;
  const Report report = run_thread_workload(options);
  EXPECT_GT(report.completed_ops, 0u);
}

// A one-group wall-clock run that writes multi-key groups ends with the
// torn-write audit, as multi-group runs do: every group is read back.
void expect_one_group_audit(Stack stack) {
  Options options = small_point(stack);
  options.clients = 16;
  options.warmup_us = 50'000;
  options.measure_us = 100'000;
  options.cross_shard_fraction = 0.2;
  options.multi_keys = 2;
  options.multi_groups = 12;
  const Report report = run_thread_workload(options);
  EXPECT_GT(report.completed_ops, 0u);
  // One group: every multi op executes as one ordered op, no 2PC.
  EXPECT_GT(report.sharding.single_shard_multi, 0u);
  EXPECT_EQ(report.sharding.cross_shard_tx, 0u);
  EXPECT_EQ(report.sharding.groups_checked, options.multi_groups);
  EXPECT_EQ(report.sharding.torn_groups, 0u);
}

TEST(ThreadWorkload, OneGroupRunAuditsMultiKeyWritesOnPbft) {
  expect_one_group_audit(Stack::Pbft);
}

TEST(ThreadWorkload, OneGroupRunAuditsMultiKeyWritesOnSplitbft) {
  expect_one_group_audit(Stack::Splitbft);
}

// --- mixed-op generator (CAS/DEL + whole-group MultiOps) ---

[[nodiscard]] Options mixed_options() {
  Options options;
  options.get_fraction = 0.3;
  options.cas_fraction = 0.2;
  options.del_fraction = 0.2;
  options.shards = 2;
  options.cross_shard_fraction = 0.25;
  options.multi_keys = 3;
  options.multi_groups = 8;
  options.key_space = 1024;
  return options;
}

TEST(Workload, MixedOpStreamCoversEveryKind) {
  OpGenerator gen(mixed_options(), 5);
  std::map<apps::KvOp, int> seen;
  for (int i = 0; i < 600; ++i) {
    const GeneratedOp op = gen.next();
    ASSERT_FALSE(op.op.empty());
    ++seen[static_cast<apps::KvOp>(op.op[0])];
    EXPECT_EQ(op.read_only, apps::kv::is_read_only(op.op));
  }
  EXPECT_GT(seen[apps::KvOp::Get], 0);
  EXPECT_GT(seen[apps::KvOp::Put], 0);
  EXPECT_GT(seen[apps::KvOp::Cas], 0);
  EXPECT_GT(seen[apps::KvOp::Del], 0);
  EXPECT_GT(seen[apps::KvOp::Multi], 0);
}

TEST(Workload, MultiOpsWriteWholeGroupsWithOneValue) {
  const Options options = mixed_options();
  OpGenerator gen(options, 6);
  int multis = 0;
  for (int i = 0; i < 600 && multis < 20; ++i) {
    const GeneratedOp op = gen.next();
    const auto multi = apps::kv::decode_multi(op.op);
    if (!multi) continue;
    ++multis;
    ASSERT_EQ(multi->subs.size(), options.multi_keys);
    for (std::size_t j = 0; j < multi->subs.size(); ++j) {
      EXPECT_EQ(multi->subs[j].op, apps::KvOp::Put);
      // Same (unique) value across the group: the atomicity invariant.
      EXPECT_EQ(multi->subs[j].value, multi->subs[0].value);
    }
    // The group lives above the single-key space and is one of the
    // configured groups, whole and aligned.
    bool found = false;
    for (std::uint64_t g = 0; g < options.multi_groups && !found; ++g) {
      found = group_keys(options, g) ==
              std::vector<Bytes>{multi->subs[0].key, multi->subs[1].key,
                                 multi->subs[2].key};
    }
    EXPECT_TRUE(found);
  }
  EXPECT_GE(multis, 20);
}

TEST(Workload, MixedOpStreamIsDeterministicPerSeed) {
  const Options options = mixed_options();
  OpGenerator a(options, 91);
  OpGenerator b(options, 91);
  OpGenerator c(options, 92);
  bool diverged = false;
  for (int i = 0; i < 128; ++i) {
    const GeneratedOp oa = a.next();
    EXPECT_EQ(oa.op, b.next().op);
    if (oa.op != c.next().op) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

// --- multi-group simulator runs (the same driver, options.shards > 1) ---

[[nodiscard]] Options sharded_point(Stack stack, std::uint32_t shards) {
  Options options = small_point(stack);
  options.shards = shards;
  options.cross_shard_fraction = 0.2;
  options.multi_keys = 2;
  options.multi_groups = 12;
  options.clients = 16;
  return options;
}

TEST(ShardedSimWorkload, SustainsAndStaysAtomicOnPbft) {
  const Report report =
      run_sim_workload(sharded_point(Stack::Pbft, 2));
  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
  EXPECT_GT(report.sharding.multi_ops, 0u);
  EXPECT_GT(report.sharding.tx_commits, 0u);
  EXPECT_EQ(report.sharding.groups_checked, 12u);
  EXPECT_EQ(report.sharding.torn_groups, 0u);
}

TEST(ShardedSimWorkload, SustainsAndStaysAtomicOnSplitbft) {
  Options options = sharded_point(Stack::Splitbft, 2);
  options.clients = 12;
  const Report report = run_sim_workload(options);
  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
  EXPECT_GT(report.sharding.tx_commits, 0u);
  EXPECT_EQ(report.sharding.torn_groups, 0u);
}

TEST(ShardedSimWorkload, DeterministicFromSeed) {
  const Options options = sharded_point(Stack::Pbft, 2);
  const Report a = run_sim_workload(options);
  const Report b = run_sim_workload(options);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.sharding.tx_commits, b.sharding.tx_commits);
  EXPECT_EQ(a.sharding.cross_shard_tx, b.sharding.cross_shard_tx);
  EXPECT_EQ(a.p99_us, b.p99_us);
}

TEST(ShardedSimWorkload, SingleShardPathRunsTheSameDriver) {
  Options options = sharded_point(Stack::Pbft, 1);
  const Report report = run_sim_workload(options);
  EXPECT_GT(report.completed_ops, 0u);
  EXPECT_TRUE(report.sustained);
  // One group: every multi op executes as one ordered op, no 2PC.
  EXPECT_GT(report.sharding.single_shard_multi, 0u);
  EXPECT_EQ(report.sharding.cross_shard_tx, 0u);
  EXPECT_EQ(report.sharding.torn_groups, 0u);
}

TEST(Workload, ReportJsonContainsShardingCounters) {
  Options options;
  options.shards = 4;
  options.cross_shard_fraction = 0.1;
  Report report;
  report.sharding.tx_commits = 7;
  report.sharding.torn_groups = 0;
  const std::string json = report_json(options, report);
  EXPECT_NE(json.find("\"shards\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"cross_shard_fraction\": 0.1"), std::string::npos);
  EXPECT_NE(json.find("\"tx_commits\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"torn_groups\": 0"), std::string::npos);
}

TEST(Workload, ReportJsonContainsPercentiles) {
  Options options;
  Report report;
  report.completed_ops = 10;
  report.ops_per_sec = 100;
  report.p50_us = 1000;
  report.p95_us = 2000;
  report.p99_us = 3000;
  report.sustained = true;
  const std::string json = report_json(options, report);
  EXPECT_NE(json.find("\"p50_us\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"p95_us\": 2000"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\": 3000"), std::string::npos);
  EXPECT_NE(json.find("\"sustained\": true"), std::string::npos);
}

}  // namespace
}  // namespace sbft::runtime::workload
