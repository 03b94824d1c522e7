// Wall-clock workload driver: client pacing, the measurement skeleton and
// the torn-write audit, over any transport with the ThreadNetwork surface
// (`send`, `register_endpoint_group`, `shutdown`) — the in-process
// ThreadNetwork and the real TcpTransport both qualify.
//
// Every load client is a `shard::Router` over one engine per shard group,
// and every group has its own network: the groups' principal id spaces
// coincide, so only the network tells them apart. A single-group run is a
// router over one group; the router hands single-key ops straight to their
// home group's engine, so it adds no protocol traffic.
//
// A station multiplexes many clients onto one endpoint group per network:
// replies arrive on the networks' consumer threads, timers fire from the
// ticker thread, and the station mutex serializes both. Output is collected
// under the lock and sent after it is released. `drive()` is the run
// skeleton: warmup, quartered sustained measurement, the torn-write audit
// when the load wrote multi-key groups, teardown.
//
// Open-loop arrival schedule (tools that count attempted requests replay
// it, so it must not change): client `id` draws from
// `Rng((seed * 1'000'003 + id) ^ 0x10adc11e47)`; its first arrival is due
// at start + max(1, exponential_us(rng, interarrival_us)), and each later
// one max(1, exponential_us(...)) after the one before.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "pbft/messages.hpp"
#include "runtime/workload/workload.hpp"
#include "shard/router.hpp"

namespace sbft::runtime::workload {

[[nodiscard]] inline Micros wall_clock_us() {
  static const SteadyClock clock;
  return clock.now();
}

[[nodiscard]] inline bool is_client_reply(const net::Envelope& env) {
  return env.type == pbft::tag(pbft::MsgType::Reply) ||
         env.type == pbft::tag(pbft::MsgType::ReadReply);
}

/// Sends each routed envelope on its shard's network.
template <typename Net>
void send_routed(const std::vector<Net*>& nets,
                 std::vector<shard::Routed>&& outs) {
  for (auto& r : outs) nets[r.shard]->send(std::move(r.env));
}

template <typename Engine, typename Net>
class Station {
 public:
  /// `nets[s]` carries shard `s`'s traffic.
  Station(const Options& options, std::vector<Net*> nets,
          LatencyHistogram& hist, const std::atomic<bool>& measuring)
      : options_(options),
        nets_(std::move(nets)),
        hist_(hist),
        measuring_(measuring) {}

  /// Adds client `id` as a router over `engines` (one per shard).
  void add_client(ClientId id, std::vector<std::unique_ptr<Engine>> engines) {
    shard::RouterOptions router_options;
    router_options.shards = static_cast<std::uint32_t>(engines.size());
    clients_.emplace(id, Client(std::move(engines), router_options, options_,
                                options_.seed * 1'000'003 + id));
  }

  [[nodiscard]] std::vector<principal::Id> principals() const {
    std::vector<principal::Id> ids;
    ids.reserve(clients_.size());
    for (const auto& [id, client] : clients_) {
      ids.push_back(principal::client(id));
    }
    return ids;
  }

  void start(Micros now) {
    std::vector<shard::Routed> outs;
    {
      const std::scoped_lock lock(mutex_);
      for (auto& [id, c] : clients_) {
        if (options_.mode == LoadMode::Open) {
          c.due_at = now + next_gap(c);
        } else {
          submit(c, c.gen.next(), now, now, outs);
        }
      }
    }
    send_routed(nets_, std::move(outs));
  }

  void deliver(std::uint32_t shard, net::Envelope env) {
    if (!is_client_reply(env)) return;  // sessions are provisioned out of band
    const Micros now = wall_clock_us();
    // principal::client is the identity mapping: the dst IS the client id.
    const auto target = static_cast<ClientId>(env.dst);
    std::vector<shard::Routed> outs;
    {
      const std::scoped_lock lock(mutex_);
      const auto it = clients_.find(target);
      if (it == clients_.end()) return;
      auto& c = it->second;
      // `outs` carries fast-read fallbacks and 2PC phase transitions.
      if (c.router.on_reply(shard, env, now, outs)) completed(c, now, outs);
    }
    send_routed(nets_, std::move(outs));
  }

  /// Ticker entry: due submissions, open-loop arrivals, engine retries.
  void tick(Micros now) {
    std::vector<shard::Routed> outs;
    {
      const std::scoped_lock lock(mutex_);
      for (auto& [id, c] : clients_) {
        if (!stopped_) {
          if (options_.mode == LoadMode::Open) {
            while (c.due_at != 0 && now >= c.due_at) {
              on_arrival(c, c.due_at, outs);
              c.due_at += next_gap(c);
            }
          } else if (c.due_at != 0 && now >= c.due_at) {
            c.due_at = 0;
            submit(c, c.gen.next(), now, now, outs);
          }
        }
        for (auto& r : c.router.tick(now)) outs.push_back(std::move(r));
      }
    }
    send_routed(nets_, std::move(outs));
  }

  /// Stops new submissions; in-flight operations keep draining on the
  /// replies and retries above.
  void stop_load() {
    const std::scoped_lock lock(mutex_);
    stopped_ = true;
  }

  [[nodiscard]] bool all_idle() {
    const std::scoped_lock lock(mutex_);
    for (const auto& [id, c] : clients_) {
      if (c.router.in_flight()) return false;
    }
    return true;
  }

  void accumulate_stats(Report& report) {
    const std::scoped_lock lock(mutex_);
    for (const auto& [id, c] : clients_) add_router_stats(c.router, report);
  }

 private:
  static constexpr std::size_t kMaxQueued = 256;

  struct Client {
    Client(std::vector<std::unique_ptr<Engine>> engines,
           shard::RouterOptions router_options, const Options& options,
           std::uint64_t seed)
        : router(std::move(engines), router_options),
          gen(options, seed),
          rng(seed ^ 0x10adc11e47ULL) {}

    shard::Router<Engine> router;
    OpGenerator gen;
    Rng rng;
    Micros inflight_from{0};
    /// Closed loop: pending think-time release (0 = none). Open loop: the
    /// next Poisson arrival.
    Micros due_at{0};
    // open-loop waiting arrivals
    std::deque<std::pair<Micros, GeneratedOp>> queued;
  };

  [[nodiscard]] Micros next_gap(Client& c) {
    return std::max<Micros>(1,
                            exponential_us(c.rng, options_.interarrival_us));
  }

  void submit(Client& c, GeneratedOp op, Micros measured_from, Micros now,
              std::vector<shard::Routed>& outs) {
    c.inflight_from = measured_from;
    for (auto& r : c.router.submit(std::move(op.op), now, op.read_only)) {
      outs.push_back(std::move(r));
    }
  }

  void completed(Client& c, Micros now, std::vector<shard::Routed>& outs) {
    if (measuring_.load(std::memory_order_relaxed)) {
      hist_.record(now - c.inflight_from);
    }
    if (stopped_) return;
    if (options_.mode == LoadMode::Open) {
      if (!c.queued.empty()) {
        auto [arrived, op] = std::move(c.queued.front());
        c.queued.pop_front();
        // Open loop measures from ARRIVAL: queueing delay stays visible.
        submit(c, std::move(op), arrived, now, outs);
      }
      return;
    }
    const Micros think = exponential_us(c.rng, options_.think_time_us);
    if (think == 0) {
      submit(c, c.gen.next(), now, now, outs);
    } else {
      c.due_at = now + think;
    }
  }

  void on_arrival(Client& c, Micros arrived, std::vector<shard::Routed>& outs) {
    if (!c.router.in_flight()) {
      submit(c, c.gen.next(), arrived, wall_clock_us(), outs);
    } else if (c.queued.size() < kMaxQueued) {
      c.queued.emplace_back(arrived, c.gen.next());
    }
    // else: shed load (open-loop back-pressure)
  }

  const Options& options_;
  std::vector<Net*> nets_;
  LatencyHistogram& hist_;
  const std::atomic<bool>& measuring_;
  std::mutex mutex_;
  bool stopped_{false};
  std::unordered_map<ClientId, Client> clients_;
};

/// Blocking one-op-at-a-time router client for the post-run audit: reads
/// go through the ordered path (not the fast path), paced by its own
/// retry ticks.
template <typename Engine, typename Net>
class SyncRouterClient {
 public:
  SyncRouterClient(std::vector<std::unique_ptr<Engine>> engines,
                   std::vector<Net*> nets)
      : nets_(std::move(nets)), router_(make_router(std::move(engines))) {
    for (std::uint32_t shard = 0;
         shard < static_cast<std::uint32_t>(nets_.size()); ++shard) {
      nets_[shard]->register_endpoint_group(
          {principal::client(router_.id())},
          [this, shard](net::Envelope env) { on_env(shard, std::move(env)); });
    }
  }

  [[nodiscard]] std::optional<Bytes> execute(Bytes op) {
    {
      const std::scoped_lock lock(mutex_);
      if (router_.in_flight()) return std::nullopt;  // wedged earlier op
      result_.reset();
      send_routed(nets_, router_.submit(std::move(op), wall_clock_us()));
    }
    const Micros deadline = wall_clock_us() + 10'000'000;
    while (wall_clock_us() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const std::scoped_lock lock(mutex_);
      if (result_) return std::move(result_);
      send_routed(nets_, router_.tick(wall_clock_us()));
    }
    return std::nullopt;
  }

 private:
  [[nodiscard]] static shard::Router<Engine> make_router(
      std::vector<std::unique_ptr<Engine>> engines) {
    shard::RouterOptions router_options;
    router_options.shards = static_cast<std::uint32_t>(engines.size());
    return shard::Router<Engine>(std::move(engines), router_options);
  }

  void on_env(std::uint32_t shard, net::Envelope env) {
    if (!is_client_reply(env)) return;
    const Micros now = wall_clock_us();
    const std::scoped_lock lock(mutex_);
    std::vector<shard::Routed> outs;
    if (auto result = router_.on_reply(shard, env, now, outs)) {
      result_ = std::move(result);
    }
    send_routed(nets_, std::move(outs));
  }

  std::vector<Net*> nets_;
  shard::Router<Engine> router_;
  std::mutex mutex_;
  std::optional<Bytes> result_;
};

[[nodiscard]] inline std::size_t station_count(const Options& options) {
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(
      1, std::min<std::size_t>({hw / 2, 8, options.clients}));
}

/// The wall-clock run skeleton. This process drives `clients`, each a
/// router over `make_engines(id)` (one engine per entry of `nets`);
/// `replica_tick(now)` drives protocol timers of replicas hosted in this
/// process (a no-op when they live elsewhere). Measurement is quartered
/// for the sustained check, as in the simulator driver. When the load
/// wrote multi-key groups, load stops, in-flight operations drain, and
/// client `verifier` reads every group back (`Report::sharding`).
/// Shuts the networks down before returning.
template <typename Engine, typename Net, typename MakeEngines,
          typename ReplicaTickFn>
Report drive(const Options& options, const std::vector<Net*>& nets,
             const std::vector<ClientId>& clients, ClientId verifier,
             MakeEngines&& make_engines, ReplicaTickFn&& replica_tick) {
  LatencyHistogram hist;
  std::atomic<bool> measuring{false};

  using S = Station<Engine, Net>;
  std::vector<std::unique_ptr<S>> stations;
  const std::size_t n_stations = station_count(options);
  for (std::size_t s = 0; s < n_stations; ++s) {
    stations.push_back(std::make_unique<S>(options, nets, hist, measuring));
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    stations[i % n_stations]->add_client(clients[i], make_engines(clients[i]));
  }
  // Destroyed after the networks shut down (its handlers reference it).
  std::unique_ptr<SyncRouterClient<Engine, Net>> auditor;

  for (auto& station : stations) {
    S* s = station.get();
    for (std::uint32_t shard = 0;
         shard < static_cast<std::uint32_t>(nets.size()); ++shard) {
      nets[shard]->register_endpoint_group(
          s->principals(), [s, shard](net::Envelope env) {
            s->deliver(shard, std::move(env));
          });
    }
  }

  std::atomic<bool> quit{false};
  std::thread ticker([&] {
    while (!quit.load(std::memory_order_relaxed)) {
      const Micros now = wall_clock_us();
      replica_tick(now);
      for (auto& station : stations) station->tick(now);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  const Micros start = wall_clock_us();
  for (auto& station : stations) station->start(start);
  std::this_thread::sleep_for(std::chrono::microseconds(options.warmup_us));

  measuring.store(true);
  bool sustained = true;
  std::uint64_t prev = hist.count();
  for (int quarter = 0; quarter < 4; ++quarter) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options.measure_us / 4));
    const std::uint64_t count = hist.count();
    if (count == prev) sustained = false;
    prev = count;
  }
  measuring.store(false);

  Report report;
  summarize_into(hist, options.measure_us, report);
  report.sustained = sustained && report.completed_ops > 0;

  if (options.cross_shard_fraction > 0 && options.multi_keys >= 2) {
    // The ticker stays alive so in-flight operations drain on retries.
    for (auto& station : stations) station->stop_load();
    const Micros drain_deadline = wall_clock_us() + 15'000'000;
    while (wall_clock_us() < drain_deadline) {
      bool idle = true;
      for (auto& station : stations) idle = idle && station->all_idle();
      if (idle) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    auditor = std::make_unique<SyncRouterClient<Engine, Net>>(
        make_engines(verifier), nets);
    audit_groups(options,
                 [&](Bytes op) { return auditor->execute(std::move(op)); },
                 report.sharding);
  }

  quit.store(true);
  ticker.join();
  for (Net* net : nets) net->shutdown();

  for (auto& station : stations) station->accumulate_stats(report);
  return report;
}

}  // namespace sbft::runtime::workload
