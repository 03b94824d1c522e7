#include "runtime/runner/runner.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sbft::runtime::runner {

namespace {

[[nodiscard]] Micros elapsed_us(
    std::chrono::steady_clock::time_point start) noexcept {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// ------------------------------------------------------ SyncOrderedRunner

void SyncOrderedRunner::submit(Prologue work) {
  submitted_.add();
  const auto t0 = std::chrono::steady_clock::now();
  Epilogue epilogue = work();
  prologue_us_.record(elapsed_us(t0));
  const auto t1 = std::chrono::steady_clock::now();
  if (epilogue) epilogue();
  epilogue_us_.record(elapsed_us(t1));
  drained_.add();
}

void SyncOrderedRunner::drain() {}  // submit() already retired everything

RunnerStats SyncOrderedRunner::stats() const {
  RunnerStats s;
  s.submitted = submitted_.value();
  s.drained = drained_.value();
  s.queue_depth = 0;
  s.queue_peak = 0;
  s.prologue_us = prologue_us_.summarize();
  s.epilogue_us = epilogue_us_.summarize();
  return s;
}

void SyncOrderedRunner::reset_stats() {
  submitted_.reset();
  drained_.reset();
  prologue_us_.reset();
  epilogue_us_.reset();
}

// ------------------------------------------------------ SpinOrderedRunner

struct SpinOrderedRunner::Impl {
  // Slot life cycle: kFree -(submit, release)-> kQueued -(worker, release)->
  // kReady -(drain, after epilogue)-> kFree. The acquire/release pair on
  // state_ publishes task_/epilogue_ across threads; the mutex is only for
  // sleeping (never held while running user work).
  enum : int { kFree = 0, kQueued = 1, kReady = 2 };

  struct Slot {
    std::atomic<int> state{kFree};
    Prologue task;
    Epilogue epilogue;
  };

  explicit Impl(std::size_t workers, std::size_t capacity)
      : slots(capacity == 0 ? 1 : capacity) {
    threads.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    drain_all();
    {
      const std::scoped_lock lock(mutex);
      stop = true;
    }
    work_cv.notify_all();
    for (auto& t : threads) t.join();
  }

  void submit(Prologue work) {
    Slot& slot = slots[tail % slots.size()];
    // Ring full: the drainer is the only thread that frees slots, and we
    // are the drainer — retire the head inline (natural backpressure, and
    // epilogue order is preserved because we only ever retire the head).
    while (slot.state.load(std::memory_order_acquire) != kFree) {
      drain_one();
    }
    slot.task = std::move(work);
    slot.state.store(kQueued, std::memory_order_release);
    const std::uint64_t idx = tail++;
    {
      const std::scoped_lock lock(mutex);
      pending.push_back(idx);
    }
    work_cv.notify_one();
    submitted.add();
    depth.add();
  }

  void drain_one() {
    Slot& slot = slots[head % slots.size()];
    // Brief spin: the parallel stage is short (a few us of crypto), so the
    // ready flag usually flips before a sleep is worth it.
    int state = slot.state.load(std::memory_order_acquire);
    for (int i = 0; i < 4096 && state != kReady; ++i) {
      state = slot.state.load(std::memory_order_acquire);
    }
    if (state != kReady) {
      std::unique_lock lock(mutex);
      done_cv.wait(lock, [&] {
        return slot.state.load(std::memory_order_acquire) == kReady;
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (slot.epilogue) slot.epilogue();
    epilogue_us.record(elapsed_us(t0));
    slot.epilogue = nullptr;
    slot.state.store(kFree, std::memory_order_release);
    ++head;
    depth.sub();
    drained.add();
  }

  void drain_all() {
    while (head != tail) drain_one();
  }

  void worker_loop() {
    while (true) {
      std::uint64_t idx = 0;
      {
        std::unique_lock lock(mutex);
        work_cv.wait(lock, [&] { return stop || !pending.empty(); });
        if (pending.empty()) return;  // stop && nothing queued
        idx = pending.front();
        pending.pop_front();
      }
      Slot& slot = slots[idx % slots.size()];
      Prologue task = std::move(slot.task);
      slot.task = nullptr;
      const auto t0 = std::chrono::steady_clock::now();
      Epilogue epilogue = task ? task() : Epilogue{};
      prologue_us.record(elapsed_us(t0));
      slot.epilogue = std::move(epilogue);
      slot.state.store(kReady, std::memory_order_release);
      // Lock-then-notify so a drainer checking the flag under the mutex
      // cannot miss the wakeup between its check and its wait.
      { const std::scoped_lock lock(mutex); }
      done_cv.notify_all();
    }
  }

  std::vector<Slot> slots;
  // head/tail are only touched by the owner (submit/drain caller); workers
  // receive slot indices through `pending` under the mutex.
  std::uint64_t head{0};
  std::uint64_t tail{0};

  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::deque<std::uint64_t> pending;
  bool stop{false};

  std::vector<std::thread> threads;

  Counter submitted;
  Counter drained;
  Gauge depth;
  LatencyHistogram prologue_us;
  LatencyHistogram epilogue_us;
};

SpinOrderedRunner::SpinOrderedRunner(std::size_t workers,
                                     std::size_t capacity)
    : impl_(std::make_unique<Impl>(workers == 0 ? 1 : workers, capacity)) {}

SpinOrderedRunner::~SpinOrderedRunner() = default;

void SpinOrderedRunner::submit(Prologue work) {
  impl_->submit(std::move(work));
}

void SpinOrderedRunner::drain() { impl_->drain_all(); }

std::size_t SpinOrderedRunner::workers() const noexcept {
  return impl_->threads.size();
}

std::size_t SpinOrderedRunner::queue_depth() const noexcept {
  return static_cast<std::size_t>(impl_->depth.value());
}

RunnerStats SpinOrderedRunner::stats() const {
  RunnerStats s;
  s.submitted = impl_->submitted.value();
  s.drained = impl_->drained.value();
  s.queue_depth = impl_->depth.value();
  s.queue_peak = impl_->depth.peak();
  s.prologue_us = impl_->prologue_us.summarize();
  s.epilogue_us = impl_->epilogue_us.summarize();
  return s;
}

void SpinOrderedRunner::reset_stats() {
  impl_->submitted.reset();
  impl_->drained.reset();
  impl_->depth.reset();
  impl_->prologue_us.reset();
  impl_->epilogue_us.reset();
}

std::shared_ptr<OrderedRunner> make_runner(std::size_t workers) {
  if (workers <= 1) return std::make_shared<SyncOrderedRunner>();
  return std::make_shared<SpinOrderedRunner>(workers);
}

}  // namespace sbft::runtime::runner
