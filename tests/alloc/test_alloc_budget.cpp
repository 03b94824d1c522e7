// Allocation budget of the SplitBFT request path.
//
// This binary replaces the global operator new with one that counts calls
// made on a thread while it has opted in. A deterministic sim SplitBFT
// cluster runs closed-loop KV clients, and a backup replica's broker is
// wrapped so that only allocations made inside its handle()/tick() count:
// the broker, the three compartments behind their ecall byte boundary, the
// serial execution runner and the KV store. The simulation is
// deterministic, so the count per executed request repeats exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>

#include "apps/kv_store.hpp"
#include "runtime/splitbft_cluster.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_news = 0;

void* counted_alloc(std::size_t n) {
  if (t_counting) ++t_news;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (t_counting) ++t_news;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

}  // namespace

// These replace the global allocation functions, so a delete that frees
// what a new of this file malloc'ed is matched; GCC cannot see that once
// it inlines both into one caller.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace sbft::runtime {
namespace {

/// Forwards to a replica and counts the operator-new calls made while it
/// runs.
class CountingActor final : public Actor {
 public:
  explicit CountingActor(std::shared_ptr<Actor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) override {
    const Scope scope(*this);
    return inner_->handle(env, now);
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) override {
    const Scope scope(*this);
    return inner_->tick(now);
  }

  [[nodiscard]] std::uint64_t news() const noexcept { return news_; }
  void reset() noexcept { news_ = 0; }

 private:
  class Scope {
   public:
    explicit Scope(CountingActor& owner) : owner_(owner) {
      start_ = t_news;
      t_counting = true;
    }
    ~Scope() {
      t_counting = false;
      owner_.news_ += t_news - start_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CountingActor& owner_;
    std::uint64_t start_{0};
  };

  std::shared_ptr<Actor> inner_;
  std::uint64_t news_{0};
};

[[nodiscard]] crypto::Key32 session_for(ClientId client) {
  crypto::Key32 key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(client * 131 + i * 7 + 1);
  }
  return key;
}

/// Closed-loop KV puts from every client; each client resubmits as soon as
/// its previous operation completed. Returns when `until` is reached.
class ClosedLoop {
 public:
  ClosedLoop(SplitbftCluster& cluster, ClientId first, std::size_t clients)
      : cluster_(cluster) {
    for (std::size_t i = 0; i < clients; ++i) {
      seen_[first + static_cast<ClientId>(i)] = 0;
    }
  }

  void run_until(Micros until) {
    while (cluster_.harness().now() < until) {
      for (auto& [client, seen] : seen_) {
        auto& actor = cluster_.client(client);
        if (started_ && actor.results().size() == seen) continue;
        seen = actor.results().size();
        const Bytes key{'k', static_cast<std::uint8_t>(client % 64)};
        Bytes value(16, 'v');
        const std::uint64_t op = ++ops_;
        for (std::size_t i = 0; i < 8; ++i) {
          value[i] = static_cast<std::uint8_t>(op >> (8 * i));
        }
        cluster_.harness().inject(actor.client().submit(
            apps::kv::encode_put(key, value), cluster_.harness().now()));
      }
      started_ = true;
      cluster_.harness().run_for(500);
    }
  }

 private:
  SplitbftCluster& cluster_;
  std::map<ClientId, std::size_t> seen_;
  bool started_{false};
  std::uint64_t ops_{0};
};

// Before requests and replies crossed the broker and the enclave boundary
// as one buffer each, this workload made 36.4 allocations per executed
// request; it makes 9.2 since (3 of them in the KV store).
constexpr double kBudgetPerRequest = 14.0;

TEST(AllocBudget, BackupBrokerStaysWithinBudgetPerExecutedRequest) {
  SplitClusterOptions options;
  options.seed = 3;
  options.config.n = 4;
  options.config.f = 1;
  options.config.batch_max = 200;
  SplitbftCluster cluster(options, splitbft::plain_app([] {
                            return std::make_unique<apps::KvStore>();
                          }));
  constexpr std::size_t kClients = 256;
  for (std::size_t i = 0; i < kClients; ++i) {
    const ClientId c = kFirstClientId + static_cast<ClientId>(i);
    cluster.add_client(c);
    cluster.client(c).client().adopt_session(session_for(c));
    for (ReplicaId r = 0; r < options.config.n; ++r) {
      cluster.replica(r).exec_mutable().install_session(c, session_for(c));
    }
  }
  constexpr ReplicaId kBackup = 1;
  auto counting = std::make_shared<CountingActor>(cluster.replica_actor(kBackup));
  cluster.interpose_env(kBackup,
                        [&](std::shared_ptr<Actor>) { return counting; });

  ClosedLoop load(cluster, kFirstClientId, kClients);
  load.run_until(cluster.harness().now() + 100'000);  // warm-up
  const auto& exec = cluster.replica(kBackup).exec();
  const std::uint64_t executed_before = exec.executed_requests();
  counting->reset();
  load.run_until(cluster.harness().now() + 200'000);
  const std::uint64_t executed =
      exec.executed_requests() - executed_before;
  ASSERT_GT(executed, 1'000u) << "the closed loop stalled";
  EXPECT_TRUE(cluster.check_agreement());

  const double per_request = static_cast<double>(counting->news()) /
                             static_cast<double>(executed);
  std::printf("allocations per executed request: %.2f (%llu over %llu)\n",
              per_request,
              static_cast<unsigned long long>(counting->news()),
              static_cast<unsigned long long>(executed));
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kBudgetPerRequest);
}

}  // namespace
}  // namespace sbft::runtime
