// Outside-in tracing for the benchmark's traced replica.
//
// Nothing here touches the library's code: every span is opened by a
// wrapper around one of its public interfaces (crypto::Signer/Verifier,
// runner::OrderedRunner, apps::Application, splitbft::CompartmentLogic)
// or around the replica's handle()/tick() call in the node's transport
// handler. Spans nest per thread; a span's self time is its duration
// minus the durations of the spans opened directly inside it on the same
// thread, so a layer's self time never double-counts the layers it calls.
//
// Per-kind totals are kept exactly. The spans themselves go to a bounded
// ring (the most recent kSpanRing spans, each with the id of the span
// that caused it) that the node writes out at exit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "crypto/keyring.hpp"
#include "runtime/runner/runner.hpp"
#include "splitbft/compartment.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Kind : std::uint32_t {
  PbftHandle,
  PbftTick,
  BrokerHandle,
  BrokerTick,
  PrepDeliver,
  ConfDeliver,
  ExecDeliver,
  Sign,
  Verify,
  RunnerSubmit,
  RunnerDrain,
  RunnerPrologue,
  RunnerEpilogue,
  AppExecute,
  AppExecuteRead,
  kCount,
};

inline constexpr std::array<const char*,
                            static_cast<std::size_t>(Kind::kCount)>
    kKindNames = {"pbft.handle",           "pbft.tick",
                  "splitbft.broker.handle", "splitbft.broker.tick",
                  "splitbft.prep.deliver",  "splitbft.conf.deliver",
                  "splitbft.exec.deliver",  "crypto.sign",
                  "crypto.verify",          "runner.submit",
                  "runner.drain",           "runner.prologue",
                  "runner.epilogue",        "apps.execute",
                  "apps.execute_read"};

struct SpanRecord {
  std::uint64_t id{0};
  std::uint64_t cause{0};  // enclosing span on the same thread (0 = root)
  Kind kind{Kind::kCount};
  std::uint32_t envelope_type{0};  // root spans: the envelope handled
  std::int64_t start_ns{0};
  std::int64_t dur_ns{0};
  std::int64_t self_ns{0};
};

class Tracer {
 public:
  static constexpr std::size_t kSpanRing = 1u << 16;
  static constexpr std::size_t kMaxDepth = 32;

  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  struct Totals {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> total_ns{0};
    std::atomic<std::int64_t> self_ns{0};
  };

  [[nodiscard]] const Totals& totals(Kind k) const {
    return totals_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t spans_recorded() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Writes the span ring as TSV (id, cause, kind, envelope type, start,
  /// duration, self), oldest first.
  void write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f,
                 "id\tcause\tkind\tenvelope_type\tstart_ns\tdur_ns\t"
                 "self_ns\n");
    const std::uint64_t n = ring_next_.load(std::memory_order_relaxed);
    const std::uint64_t first = n > kSpanRing ? n - kSpanRing : 0;
    for (std::uint64_t i = first; i < n; ++i) {
      const SpanRecord& r = ring_[i % kSpanRing];
      std::fprintf(f, "%llu\t%llu\t%s\t%u\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.cause),
                   r.kind < Kind::kCount
                       ? kKindNames[static_cast<std::size_t>(r.kind)]
                       : "?",
                   r.envelope_type, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.dur_ns),
                   static_cast<long long>(r.self_ns));
    }
    std::fclose(f);
  }

 private:
  friend class Span;

  struct Frame {
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Stack {
    std::array<Frame, kMaxDepth> frames;
    std::size_t depth{0};
  };
  static Stack& stack() {
    thread_local Stack s;
    return s;
  }

  std::array<Totals, static_cast<std::size_t>(Kind::kCount)> totals_{};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> ring_next_{0};
  std::unique_ptr<SpanRecord[]> ring_{new SpanRecord[kSpanRing]};
};

/// RAII span: times one call into a layer.
class Span {
 public:
  explicit Span(Kind kind, std::uint32_t envelope_type = 0)
      : kind_(kind), envelope_type_(envelope_type) {
    Tracer& t = Tracer::get();
    auto& st = Tracer::stack();
    id_ = t.next_id_.fetch_add(1, std::memory_order_relaxed);
    cause_ = st.depth ? st.frames[st.depth - 1].id : 0;
    if (st.depth < Tracer::kMaxDepth) {
      st.frames[st.depth] = {id_, now_ns(), 0};
    }
    ++st.depth;
  }
  ~Span() {
    Tracer& t = Tracer::get();
    auto& st = Tracer::stack();
    --st.depth;
    if (st.depth >= Tracer::kMaxDepth) return;
    const Tracer::Frame f = st.frames[st.depth];
    const std::int64_t dur = now_ns() - f.start_ns;
    const std::int64_t self = dur - f.child_ns;
    if (st.depth > 0) st.frames[st.depth - 1].child_ns += dur;
    auto& tot = t.totals_[static_cast<std::size_t>(kind_)];
    tot.calls.fetch_add(1, std::memory_order_relaxed);
    tot.total_ns.fetch_add(dur, std::memory_order_relaxed);
    tot.self_ns.fetch_add(self, std::memory_order_relaxed);
    const std::uint64_t slot =
        t.ring_next_.fetch_add(1, std::memory_order_relaxed);
    t.ring_[slot % Tracer::kSpanRing] = {id_,           cause_, kind_,
                                         envelope_type_, f.start_ns, dur,
                                         self};
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Kind kind_;
  std::uint32_t envelope_type_;
  std::uint64_t id_{0};
  std::uint64_t cause_{0};
};

// ------------------------------------------------------------- wrappers

class TracedSigner final : public sbft::crypto::Signer {
 public:
  explicit TracedSigner(std::shared_ptr<const sbft::crypto::Signer> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] sbft::Bytes sign(sbft::ByteView message) const override {
    const Span span(Kind::Sign);
    return inner_->sign(message);
  }
  [[nodiscard]] sbft::crypto::PrincipalId id() const noexcept override {
    return inner_->id();
  }

 private:
  std::shared_ptr<const sbft::crypto::Signer> inner_;
};

class TracedVerifier final : public sbft::crypto::Verifier {
 public:
  explicit TracedVerifier(std::shared_ptr<const sbft::crypto::Verifier> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] bool verify(sbft::crypto::PrincipalId signer,
                            sbft::ByteView message,
                            sbft::ByteView sig) const override {
    const Span span(Kind::Verify);
    return inner_->verify(signer, message, sig);
  }
  [[nodiscard]] bool knows(sbft::crypto::PrincipalId signer) const override {
    return inner_->knows(signer);
  }

 private:
  std::shared_ptr<const sbft::crypto::Verifier> inner_;
};

/// Times submit/drain on the caller and the two stages wherever they run;
/// records each unit's wait between submit() and its prologue starting.
class TracedRunner final : public sbft::runtime::runner::OrderedRunner {
 public:
  using Prologue = sbft::runtime::runner::Prologue;
  using Epilogue = sbft::runtime::runner::Epilogue;

  explicit TracedRunner(
      std::shared_ptr<sbft::runtime::runner::OrderedRunner> inner)
      : inner_(std::move(inner)) {}

  void submit(Prologue work) override {
    const Span span(Kind::RunnerSubmit);
    const std::int64_t submitted = now_ns();
    inner_->submit([this, submitted, work = std::move(work)]() -> Epilogue {
      const std::int64_t started = now_ns();
      queue_wait_ns_.fetch_add(started - submitted, std::memory_order_relaxed);
      queued_.fetch_add(1, std::memory_order_relaxed);
      Epilogue epilogue;
      {
        const Span prologue(Kind::RunnerPrologue);
        epilogue = work();
      }
      return [epilogue = std::move(epilogue)] {
        const Span span(Kind::RunnerEpilogue);
        if (epilogue) epilogue();
      };
    });
  }
  void drain() override {
    const Span span(Kind::RunnerDrain);
    inner_->drain();
  }
  [[nodiscard]] std::size_t workers() const noexcept override {
    return inner_->workers();
  }
  [[nodiscard]] std::size_t queue_depth() const noexcept override {
    return inner_->queue_depth();
  }
  [[nodiscard]] sbft::runtime::runner::RunnerStats stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

  [[nodiscard]] std::uint64_t queued() const {
    return queued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t queue_wait_ns() const {
    return queue_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<sbft::runtime::runner::OrderedRunner> inner_;
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<std::int64_t> queue_wait_ns_{0};
};

/// Application counters shared by every instance a replica's factory
/// makes (state transfer may rebuild the app).
struct AppCounters {
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::int64_t> first_execute_ns{0};
  std::atomic<std::uint64_t> state_bytes{0};
};

class TracedApp final : public sbft::apps::Application {
 public:
  TracedApp(std::unique_ptr<sbft::apps::Application> inner,
            std::shared_ptr<AppCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  [[nodiscard]] sbft::Bytes execute(sbft::ByteView operation) override {
    if (counters_->executed.fetch_add(1, std::memory_order_relaxed) == 0) {
      counters_->first_execute_ns.store(now_ns(), std::memory_order_relaxed);
    }
    const Span span(Kind::AppExecute);
    return inner_->execute(operation);
  }
  [[nodiscard]] bool is_read_only(sbft::ByteView operation) const override {
    return inner_->is_read_only(operation);
  }
  [[nodiscard]] sbft::Bytes execute_read(
      sbft::ByteView operation) const override {
    const Span span(Kind::AppExecuteRead);
    return inner_->execute_read(operation);
  }
  [[nodiscard]] sbft::Bytes snapshot() const override {
    return inner_->snapshot();
  }
  [[nodiscard]] bool restore(sbft::ByteView snapshot) override {
    counters_->state_bytes.fetch_add(snapshot.size(),
                                     std::memory_order_relaxed);
    return inner_->restore(snapshot);
  }
  [[nodiscard]] sbft::Digest state_digest() const override {
    return inner_->state_digest();
  }
  void snapshot_chunks(
      std::size_t chunk_bytes,
      const std::function<void(sbft::ByteView)>& sink) const override {
    inner_->snapshot_chunks(chunk_bytes, sink);
  }
  void apply_begin(std::uint64_t expected_bytes) override {
    inner_->apply_begin(expected_bytes);
  }
  [[nodiscard]] bool apply_chunk(sbft::ByteView data) override {
    counters_->state_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->apply_chunk(data);
  }
  [[nodiscard]] bool apply_end() override { return inner_->apply_end(); }
  void apply_abort() override { inner_->apply_abort(); }

 private:
  std::unique_ptr<sbft::apps::Application> inner_;
  std::shared_ptr<AppCounters> counters_;
};

/// Compartment decorator (the LogicDecorator shape of
/// splitbft::ReplicaOptions): one span per ecall delivery.
class TracedLogic final : public sbft::splitbft::CompartmentLogic {
 public:
  TracedLogic(Kind kind,
              std::unique_ptr<sbft::splitbft::CompartmentLogic> inner)
      : kind_(kind), inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<sbft::net::Envelope> deliver(
      const sbft::net::Envelope& env) override {
    const Span span(kind_, env.type);
    return inner_->deliver(env);
  }
  [[nodiscard]] sbft::Digest measurement() const override {
    return inner_->measurement();
  }

 private:
  Kind kind_;
  std::unique_ptr<sbft::splitbft::CompartmentLogic> inner_;
};

}  // namespace perfbench
