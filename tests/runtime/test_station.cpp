// Wall-clock station contracts that need no cluster: the open-loop arrival
// schedule, which tools replay to count how many requests a run attempted.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/workload/station.hpp"

namespace sbft::runtime::workload {
namespace {

/// Minimal client engine: one envelope per submit, and any reply
/// completes the operation in flight.
class FakeEngine {
 public:
  explicit FakeEngine(ClientId id) : id_(id) {}

  [[nodiscard]] ClientId id() const noexcept { return id_; }
  [[nodiscard]] std::vector<net::Envelope> submit(Bytes, Micros, bool) {
    net::Envelope env;
    env.src = principal::client(id_);
    return {std::move(env)};
  }
  [[nodiscard]] std::optional<Bytes> on_reply(const net::Envelope&, Micros,
                                              std::vector<net::Envelope>&) {
    return Bytes{};
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros) { return {}; }
  [[nodiscard]] std::uint64_t fast_reads() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t read_fallbacks() const noexcept { return 0; }

 private:
  ClientId id_;
};

/// Records, per client, the (test-driven) time of every submission.
struct FakeNet {
  void send(net::Envelope env) {
    const auto id = static_cast<ClientId>(env.src);
    sends[id].push_back(now);
    fresh.push_back(id);
  }

  Micros now{0};
  std::map<ClientId, std::vector<Micros>> sends;
  std::vector<ClientId> fresh;
};

TEST(Station, OpenLoopArrivalScheduleIsPinned) {
  Options options;
  options.mode = LoadMode::Open;
  options.interarrival_us = 1'000;
  options.seed = 7;
  const std::vector<ClientId> ids = {kFirstClientId, kFirstClientId + 3};

  LatencyHistogram hist;
  const std::atomic<bool> measuring{false};
  FakeNet net;
  Station<FakeEngine, FakeNet> station(options, {&net}, hist, measuring);
  for (const ClientId id : ids) {
    std::vector<std::unique_ptr<FakeEngine>> engines;
    engines.push_back(std::make_unique<FakeEngine>(id));
    station.add_client(id, std::move(engines));
  }

  // Tick every microsecond and complete each submission at once, so every
  // arrival is submitted on the tick it falls due.
  constexpr Micros kStart = 1'000'000;
  constexpr Micros kEnd = kStart + 30'000;
  station.start(kStart);
  for (Micros t = kStart; t <= kEnd; ++t) {
    net.now = t;
    station.tick(t);
    for (const ClientId id : std::exchange(net.fresh, {})) {
      net::Envelope reply;
      reply.dst = principal::client(id);
      reply.type = pbft::tag(pbft::MsgType::Reply);
      station.deliver(0, std::move(reply));
    }
  }

  // The schedule as replayed by tools that count attempted requests.
  for (const ClientId id : ids) {
    Rng rng((options.seed * 1'000'003 + id) ^ 0x10adc11e47ULL);
    std::vector<Micros> expected;
    Micros due = kStart + std::max<Micros>(
                              1, exponential_us(rng, options.interarrival_us));
    while (due <= kEnd) {
      expected.push_back(due);
      due += std::max<Micros>(1, exponential_us(rng, options.interarrival_us));
    }
    ASSERT_GT(expected.size(), 10u);
    EXPECT_EQ(net.sends[id], expected) << "client " << id;
  }
}

}  // namespace
}  // namespace sbft::runtime::workload
