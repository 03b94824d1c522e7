// Staged ordered-execution pipeline (ROADMAP "Parallel ordered execution
// runner"; dsnet's SpinOrderedRunner is the exemplar).
//
// A unit of work is split in two:
//
//   Prologue  — the parallelizable stage (hashing, MAC/signature
//               generation, AEAD sealing, read-only execution against a
//               stable snapshot). May run on any worker thread. It must
//               only touch data it owns (captured copies) or state that is
//               immutable while the runner holds work.
//   Epilogue  — the ordered-commit stage returned by the prologue. Runs on
//               the drain() caller in strict submission order, so state
//               mutations, reply-cache updates, and checkpoint cuts keep
//               byte-identical semantics to a serial execution.
//
// The contract with the sans-I/O engines: every submit() is drained before
// the enclosing handle()/tick() returns, so no worker activity ever spans
// two engine calls. Parallelism exists *within* one call — request i+1's
// ordered execution overlaps request i's reply MAC/serialize — which keeps
// the deterministic simulation byte-identical while letting the threaded
// runtime scale across cores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/stats.hpp"

namespace sbft::runtime::runner {

/// Ordered-commit stage: runs on the drain() caller, in submission order.
using Epilogue = std::function<void()>;
/// Parallel stage: runs on any worker, returns the ordered stage.
using Prologue = std::function<Epilogue()>;

/// Per-stage observability snapshot (queue-depth gauge + stage latencies).
struct RunnerStats {
  std::uint64_t submitted{0};
  std::uint64_t drained{0};
  std::uint64_t queue_depth{0};  // instantaneous (0 between engine calls)
  std::uint64_t queue_peak{0};   // high-water mark since reset
  LatencySummary prologue_us;    // parallel-stage service time
  LatencySummary epilogue_us;    // ordered-commit service time
};

/// Staged pipeline interface. Implementations guarantee epilogues run in
/// submission order on the thread that calls drain().
class OrderedRunner {
 public:
  virtual ~OrderedRunner() = default;

  virtual void submit(Prologue work) = 0;
  /// Runs every pending epilogue in submission order; returns with the
  /// queue empty.
  virtual void drain() = 0;

  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;
  /// Units submitted but not yet retired (gc_footprint accounting).
  [[nodiscard]] virtual std::size_t queue_depth() const noexcept = 0;
  [[nodiscard]] virtual RunnerStats stats() const = 0;
  virtual void reset_stats() = 0;
};

/// Serial reference implementation: prologue and epilogue run inline on
/// the submitting thread. The deterministic default — the simulator and
/// every state-equivalence test measure the parallel runner against it.
class SyncOrderedRunner final : public OrderedRunner {
 public:
  SyncOrderedRunner() = default;

  void submit(Prologue work) override;
  void drain() override;

  [[nodiscard]] std::size_t workers() const noexcept override { return 0; }
  [[nodiscard]] std::size_t queue_depth() const noexcept override {
    return 0;
  }
  [[nodiscard]] RunnerStats stats() const override;
  void reset_stats() override;

 private:
  Counter submitted_;
  Counter drained_;
  LatencyHistogram prologue_us_;
  LatencyHistogram epilogue_us_;
};

/// Parallel implementation: N worker threads service prologues from a slot
/// ring; drain() retires slots head-to-tail on the caller, spinning
/// briefly on each slot's ready flag before falling back to a condition
/// variable (hence "spin"). TSan-clean: slot hand-off is acquire/release
/// on the per-slot state, wakeups go through the mutex.
class SpinOrderedRunner final : public OrderedRunner {
 public:
  explicit SpinOrderedRunner(std::size_t workers,
                             std::size_t capacity = 1024);
  ~SpinOrderedRunner() override;

  SpinOrderedRunner(const SpinOrderedRunner&) = delete;
  SpinOrderedRunner& operator=(const SpinOrderedRunner&) = delete;

  void submit(Prologue work) override;
  void drain() override;

  [[nodiscard]] std::size_t workers() const noexcept override;
  [[nodiscard]] std::size_t queue_depth() const noexcept override;
  [[nodiscard]] RunnerStats stats() const override;
  void reset_stats() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// workers <= 1 -> SyncOrderedRunner, otherwise SpinOrderedRunner(workers).
/// One worker is serial on purpose: the engine waits in drain() for every
/// prologue anyway, so a lone helper thread only moves each unit across a
/// core and back (the perf model charges exec_workers = 1 as serial too).
[[nodiscard]] std::shared_ptr<OrderedRunner> make_runner(std::size_t workers);

}  // namespace sbft::runtime::runner
