// Scale-out workload engine — configuration, generators and reports.
//
// Turns the protocol reproduction into a system that can be saturated: an
// open/closed-loop load generator driving thousands of concurrent clients
// (per-client session state, think times, request-size distribution and
// Zipf key skew for the KV application). There is one driver per clock,
// and in both every load client is a `shard::Router` over one engine per
// shard group, so a single-group run is the router over one group:
//
//  * virtual time — runtime/workload/sim_driver.hpp: perf-modeled
//    replicas on the deterministic simulator, reproducible from the seed;
//  * wall-clock time — runtime/workload/station.hpp: the stations and run
//    skeleton behind the ThreadNetwork driver (thread_driver.hpp) and the
//    multi-process TCP loadgen (tcp_cluster.hpp).
//
//  * Closed loop: each client keeps exactly one request in flight and
//    thinks for an exponentially distributed pause after each completion —
//    throughput is offered by the system's own speed (classic closed
//    queueing network; what the paper's figures measure).
//  * Open loop: requests arrive per client as a Poisson process regardless
//    of completions; a client whose previous request is still in flight
//    queues the arrival and submits it on completion. Latency is measured
//    from ARRIVAL, so queueing delay under overload is visible (the
//    coordinated-omission-free measurement closed loops cannot give).
//
// Either driver ends a run that wrote multi-key groups
// (`cross_shard_fraction > 0`) with the torn-write audit (`audit_groups`).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "crypto/hmac.hpp"
#include "pbft/config.hpp"

namespace sbft::runtime::workload {

enum class Stack { Pbft, Splitbft };
enum class LoadMode { Closed, Open };

[[nodiscard]] const char* to_string(Stack s) noexcept;
[[nodiscard]] const char* to_string(LoadMode m) noexcept;

struct Options {
  Stack stack{Stack::Pbft};
  LoadMode mode{LoadMode::Closed};
  std::uint32_t clients{1000};

  /// Closed loop: mean think time between a completion and the next
  /// submission (exponential; 0 = immediate re-submission).
  Micros think_time_us{0};
  /// Open loop: mean inter-arrival time per client (Poisson arrivals).
  Micros interarrival_us{20'000};

  // --- KV workload shape ---
  /// Number of distinct keys (per deployment, shared across clients).
  std::uint64_t key_space{16'384};
  /// Zipf skew theta in [0, 1): 0 = uniform, 0.99 = YCSB-style hot keys.
  double key_skew{0.99};
  /// Fraction of GETs (remainder are writes).
  double get_fraction{0.5};
  /// Write mix: fraction of writes issued as CAS (expected = a fresh
  /// random value, so most mismatch — exercising the failure path) and
  /// as DEL. The remainder are plain PUTs.
  double cas_fraction{0.0};
  double del_fraction{0.0};
  /// Value size: uniform in [value_min_bytes, value_max_bytes].
  std::size_t value_min_bytes{10};
  std::size_t value_max_bytes{10};

  // --- sharding ---
  /// Shard groups the deployment runs (1 = single group, no router 2PC).
  std::uint32_t shards{1};
  /// Fraction of generated ops that are multi-key MultiOps over a key
  /// *group*. Group keys live ABOVE the single-key space and are only
  /// ever written whole-group with one unique value, so "all keys of a
  /// group are equal at quiescence" is the cross-shard atomicity
  /// invariant benches assert. Whether a given group actually spans
  /// shards is organic (keys are hash-placed); with `multi_keys` = k and
  /// s shards a fraction 1 - s^(1-k) of groups cross shards.
  double cross_shard_fraction{0.0};
  /// Keys per multi-op group (write-set size).
  std::uint32_t multi_keys{2};
  /// Number of distinct groups (uniformly chosen per multi op).
  std::uint64_t multi_groups{1024};

  /// Protocol configuration (n, f, batch_max, pipeline_depth, ...).
  pbft::Config protocol{};
  /// Execution-runner workers per replica: sizes the PBFT worker pool /
  /// SplitBFT in-enclave exec stage in the sim perf model, and the runner
  /// of every replica: 0 or 1 = serial SyncOrderedRunner, N >= 2 =
  /// SpinOrderedRunner with N threads.
  std::size_t workers{4};
  Micros warmup_us{200'000};
  Micros measure_us{1'000'000};
  std::uint64_t seed{42};
};

/// Per-request time spent inside each compartment on the leader (Figure 4).
struct EcallBreakdown {
  double prep_us_per_req{0};
  double conf_us_per_req{0};
  double exec_us_per_req{0};
  double prep_mean_ecall_us{0};
  double conf_mean_ecall_us{0};
  double exec_mean_ecall_us{0};
};

struct Report {
  std::uint64_t completed_ops{0};
  /// Read fast-path accounting (whole run, warmup included): reads that
  /// completed in a single round / reads that fell back to ordering.
  /// Both zero when the read path is off.
  std::uint64_t fast_reads{0};
  std::uint64_t read_fallbacks{0};
  /// Fresh requests shed by replica-side admission control over the run
  /// (summed across replicas; 0 unless Config::admission_queue_cap is set).
  std::uint64_t admission_rejects{0};
  double ops_per_sec{0};
  double mean_latency_ms{0};
  Micros p50_us{0};
  Micros p95_us{0};
  Micros p99_us{0};
  Micros max_us{0};
  /// Non-empty latency-histogram buckets (JSON export).
  std::vector<LatencyHistogram::Bucket> histogram;
  /// True when the run sustained traffic: every measured window completed
  /// operations and no client starved (its in-flight request survived the
  /// whole measurement).
  bool sustained{false};

  /// Sharding counters, summed over the load clients' routers. With one
  /// group every multi op is `single_shard_multi` and no 2PC runs.
  struct ShardingCounters {
    std::uint64_t multi_ops{0};
    std::uint64_t single_shard_multi{0};
    std::uint64_t cross_shard_tx{0};
    std::uint64_t tx_commits{0};
    std::uint64_t tx_aborts{0};
    std::uint64_t busy_retries{0};
    /// Post-run atomicity audit: key groups read back after quiescence /
    /// groups whose keys disagreed (MUST stay 0 — a torn multi-op).
    std::uint64_t groups_checked{0};
    std::uint64_t torn_groups{0};
  };
  ShardingCounters sharding;

  /// Transport-level counters, filled by drivers that run over a real
  /// transport (all zero for ThreadNetwork / simulator runs).
  struct TransportCounters {
    std::uint64_t bytes_in{0};
    std::uint64_t bytes_out{0};
    std::uint64_t frames_in{0};
    std::uint64_t frames_out{0};
    std::uint64_t writev_calls{0};
    double frames_per_writev{0};
    std::uint64_t wakes{0};  // eventfd writes (not loop-thread sends)
    std::uint64_t reads{0};  // ingress recv calls that returned bytes
    std::uint64_t reconnects{0};
    std::uint64_t backpressure_drops{0};
    /// State-transfer traffic split out from the totals above (recovery
    /// bandwidth vs. protocol bandwidth).
    std::uint64_t state_frames_in{0};
    std::uint64_t state_frames_out{0};
    std::uint64_t state_bytes_in{0};
    std::uint64_t state_bytes_out{0};
  };
  TransportCounters transport;

  /// Virtual-time SplitBFT runs only: enclave time on group 0's leader
  /// over the measurement window (not exported by report_json).
  EcallBreakdown leader_ecalls;
};

/// Fills the percentile/histogram fields of `report` from `hist`.
void summarize_into(const LatencyHistogram& hist, Micros measure_us,
                    Report& report);

/// Bounded Zipf(θ) sampler over [0, n) — Gray et al.'s incremental zeta
/// method, O(1) per sample after O(n_distinct_ranks) setup approximation.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  [[nodiscard]] std::uint64_t next(Rng& rng);
  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

 private:
  std::uint64_t n_{1};
  double theta_{0};
  double zetan_{1};
  double alpha_{0};
  double eta_{0};
};

/// One generated operation, tagged so drivers know whether it may take the
/// read fast path (Config::read_path permitting).
struct GeneratedOp {
  Bytes op;
  bool read_only{false};
};

/// Keys of multi-op group `group`: `multi_keys` consecutive ids starting
/// at key_space + group * multi_keys — disjoint from the single-key
/// space, so only whole-group writes ever touch them.
[[nodiscard]] std::vector<Bytes> group_keys(const Options& options,
                                            std::uint64_t group);

/// Per-client operation stream: KV GET/PUT/CAS/DEL ops with skewed keys
/// and sized values, plus whole-group MultiOps at `cross_shard_fraction`.
/// Deterministic from the seed; each client forks its own stream.
class OpGenerator {
 public:
  OpGenerator(const Options& options, std::uint64_t client_seed);

  /// Next serialized application operation, read-only tagged.
  [[nodiscard]] GeneratedOp next();

 private:
  [[nodiscard]] GeneratedOp next_multi();
  [[nodiscard]] Bytes next_value();

  ZipfGenerator zipf_;
  double get_fraction_;
  double cas_fraction_;
  double del_fraction_;
  std::size_t value_min_;
  std::size_t value_max_;
  double multi_fraction_;
  std::uint32_t multi_keys_;
  std::uint64_t multi_groups_;
  std::uint64_t group_base_;
  Rng rng_;
};

/// Exponentially distributed duration with the given mean (0 -> 0).
[[nodiscard]] Micros exponential_us(Rng& rng, Micros mean_us);

/// Deterministic out-of-band SplitBFT session key for a workload client.
/// Both drivers derive from here — the client adopts this key and every
/// Execution enclave has it pre-installed, so the two sides MUST agree.
[[nodiscard]] crypto::Key32 session_key(std::uint64_t seed, ClientId client);

/// Adds a load client's router counters (read path + sharding) to `report`.
template <typename Router>
void add_router_stats(const Router& router, Report& report) {
  report.fast_reads += router.fast_reads();
  report.read_fallbacks += router.read_fallbacks();
  const auto& stats = router.stats();
  report.sharding.multi_ops += stats.multi_ops;
  report.sharding.single_shard_multi += stats.single_shard_multi;
  report.sharding.cross_shard_tx += stats.cross_shard_tx;
  report.sharding.tx_commits += stats.tx_commits;
  report.sharding.tx_aborts +=
      stats.tx_aborts_vote + stats.tx_aborts_busy + stats.tx_aborts_expired;
  report.sharding.busy_retries += stats.busy_retries;
}

/// Torn-write audit, run after the load stopped and drained: reads every
/// multi-op key group back through `execute` (one ordered op at a time;
/// nullopt = no reply). All keys of a group were only ever written
/// together with one value, so any disagreement — including a mix of
/// present and missing keys, or an unreadable key — is a torn write.
void audit_groups(const Options& options,
                  const std::function<std::optional<Bytes>(Bytes)>& execute,
                  Report::ShardingCounters& counters);

/// One JSON object describing a run (no trailing newline).
[[nodiscard]] std::string report_json(const Options& options,
                                      const Report& report);

}  // namespace sbft::runtime::workload
