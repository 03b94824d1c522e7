// The benchmark's own process, assembled from the library's public
// constructors only. Three subcommands:
//
//   perfbench_node replica  <bft_replica flags> --trace-out FILE
//       A traced replica host. Same flags, same assembly and same protocol
//       configuration as bft_replica (see ReplicaNode in
//       runtime/workload/tcp_cluster.cpp), but every layer it hands to the
//       replica is wrapped in a timing decorator (harness/trace.hpp), and
//       the transport handler timestamps every envelope in and out. At
//       exit it writes the usual transport stats plus the trace summary
//       as one JSON object to --trace-out, and its span ring next to it.
//
//   perfbench_node probe    <bft_loadgen flags> --client-index I
//       One client on loadgen node --loadgen. Submits one operation and
//       prints {"commit_ns": T} once f+1 matching replies arrived, where
//       T is CLOCK_MONOTONIC in ns (the benchmark's set-up clock).
//
//   perfbench_node arrivals --seed S --clients N --loadgens L --loadgen I
//                           --interarrival-us M --from-us A --to-us B
//       Replays the open-loop arrival schedule of the workload stations
//       (runtime/workload/station.hpp) and prints how many arrivals fall
//       in [A, B) µs after the load generator's start.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "crypto/x25519.hpp"
#include "harness/trace.hpp"
#include "pbft/client.hpp"
#include "pbft/messages.hpp"
#include "pbft/replica.hpp"
#include "runtime/workload/station.hpp"
#include "runtime/workload/tcp_cluster.hpp"
#include "splitbft/broker.hpp"
#include "splitbft/client.hpp"
#include "splitbft/conf_compartment.hpp"
#include "splitbft/enclave_adapter.hpp"
#include "splitbft/exec_compartment.hpp"
#include "splitbft/messages.hpp"
#include "splitbft/prep_compartment.hpp"
#include "splitbft/replica.hpp"
#include "tee/attestation.hpp"
#include "tee/enclave_host.hpp"
#include "tee/protected_fs.hpp"
#include "tee/sealing.hpp"

using namespace sbft;
using namespace sbft::runtime;
using perfbench::Kind;
using perfbench::now_ns;
using perfbench::Span;
using workload::ClusterTopology;
using workload::Options;
using workload::Stack;

namespace {

// Key-derivation salts of a deployment. They must equal the ones in
// runtime/workload/tcp_cluster.cpp: every process derives its keys from
// the shared seed, so a traced replica or probe with different salts
// could not talk to the shipped binaries (the benchmark then fails its
// progress checks instead of reporting numbers).
constexpr std::uint64_t kPbftKeyringSalt = 0x6b657972696e67ULL;
constexpr std::uint64_t kSplitKeyringSalt = 0x5b5f7b657972ULL;
constexpr std::uint64_t kAttestationSalt = 0xa77e57ULL;
constexpr std::uint64_t kSealingSalt = 0x5ea1ULL;
constexpr std::uint64_t kClusterRngSalt = 0x5b5f636c7573ULL;
constexpr std::uint64_t kDirectorySeed = 0x5ec7e7;
// Per-client pacing stream salt of runtime/workload/station.hpp.
constexpr std::uint64_t kStationRngSalt = 0x10adc11e47ULL;

[[nodiscard]] const char* arg_value(int argc, char** argv, const char* flag,
                                    const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

[[nodiscard]] std::uint64_t arg_u64(int argc, char** argv, const char* flag,
                                    std::uint64_t fallback) {
  const char* v = arg_value(argc, argv, flag, nullptr);
  return v ? std::strtoull(v, nullptr, 10) : fallback;
}

/// Topology from the bft_replica/bft_loadgen address flags (one shard).
[[nodiscard]] ClusterTopology topology_from(int argc, char** argv) {
  ClusterTopology topology;
  topology.replicas =
      static_cast<std::uint32_t>(arg_u64(argc, argv, "--replicas", 4));
  topology.loadgens =
      static_cast<std::uint32_t>(arg_u64(argc, argv, "--loadgens", 1));
  const std::string host = arg_value(argc, argv, "--host", "127.0.0.1");
  const auto base_port = arg_u64(argc, argv, "--base-port", 18000);
  for (std::uint32_t node = 0; node < topology.nodes(); ++node) {
    topology.addrs.push_back(host + ":" + std::to_string(base_port + node));
  }
  return topology;
}

/// Workload options with the protocol configuration bft_replica and
/// bft_loadgen hard-code.
[[nodiscard]] Options options_from(int argc, char** argv,
                                   std::uint32_t replicas) {
  Options options;
  options.stack = std::strcmp(arg_value(argc, argv, "--stack", "pbft"),
                              "splitbft") == 0
                      ? Stack::Splitbft
                      : Stack::Pbft;
  options.clients =
      static_cast<std::uint32_t>(arg_u64(argc, argv, "--clients", 1000));
  options.seed = arg_u64(argc, argv, "--seed", 42);
  options.workers = arg_u64(argc, argv, "--workers", 4);
  options.protocol.n = replicas;
  options.protocol.f = (replicas - 1) / 3;
  options.protocol.batch_max =
      static_cast<std::size_t>(arg_u64(argc, argv, "--batch-max", 200));
  options.protocol.batch_timeout_us = 10'000;
  options.protocol.checkpoint_interval = 50;
  options.protocol.watermark_window = 400;
  options.protocol.pipeline_depth =
      static_cast<std::size_t>(arg_u64(argc, argv, "--pipeline-depth", 8));
  options.protocol.request_timeout_us = 2'000'000;
  return options;
}

[[nodiscard]] std::string histogram_json(const LatencyHistogram& h) {
  std::ostringstream os;
  os << "{\"count\": " << h.count() << ", \"mean_us\": " << h.mean_us()
     << ", \"buckets\": [";
  const auto buckets = h.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (i) os << ", ";
    os << "[" << buckets[i].lower_us << ", " << buckets[i].upper_us << ", "
       << buckets[i].count << "]";
  }
  os << "]}";
  return os.str();
}

// ------------------------------------------------------------ protocol
//
// Events read off the envelopes crossing the transport handler: request
// arrivals, batch cuts (PrePrepare), replies, view changes and this
// replica's checkpoints. Decoding is done after the handler's spans
// closed, so it never counts as a layer's time.

struct RequestKey {
  ClientId client;
  Timestamp timestamp;
  bool operator==(const RequestKey&) const = default;
};
struct RequestKeyHash {
  std::size_t operator()(const RequestKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(k.client * 0x9e3779b97f4a7c15ULL ^
                                      k.timestamp);
  }
};

class ProtocolEvents {
 public:
  ProtocolEvents(Stack stack, ReplicaId self, std::int64_t start_ns)
      : stack_(stack), self_(self) {
    leader_since_[0] = start_ns;
  }

  void inbound(const net::Envelope& env, std::int64_t now) {
    const std::scoped_lock lock(mu_);
    const auto type = static_cast<pbft::MsgType>(env.type);
    if (type == pbft::MsgType::Request) {
      if (auto req = pbft::Request::deserialize(env.payload)) {
        arrivals_.try_emplace({req->client, req->timestamp}, now);
      }
    } else if (type == pbft::MsgType::NewView) {
      note_new_view(env, now, /*led=*/false);
    }
  }

  void outbound(const std::vector<net::Envelope>& outs, std::int64_t now) {
    const std::scoped_lock lock(mu_);
    for (const auto& env : outs) {
      switch (static_cast<pbft::MsgType>(env.type)) {
        case pbft::MsgType::PrePrepare:
          on_pre_prepare(env, now);
          break;
        case pbft::MsgType::Reply:
          if (!preprepared_.empty()) {
            if (auto reply = pbft::Reply::deserialize(env.payload)) {
              const auto it =
                  preprepared_.find({reply->client, reply->timestamp});
              if (it != preprepared_.end()) {
                order_us_.record(static_cast<Micros>((now - it->second) /
                                                     1000));
                preprepared_.erase(it);
              }
            }
          }
          break;
        case pbft::MsgType::ViewChange:
          if (auto vc = pbft::ViewChange::deserialize(env.payload)) {
            view_change_sent_.try_emplace(vc->new_view, now);
          }
          break;
        case pbft::MsgType::NewView:
          note_new_view(env, now, /*led=*/true);
          break;
        case pbft::MsgType::Checkpoint:
          if (auto cp = pbft::Checkpoint::deserialize(env.payload)) {
            if (cp->sender == self_) {
              checkpoints_.try_emplace(cp->seq, cp->state_digest);
            }
          }
          break;
        default:
          break;
      }
    }
    if (now - last_purge_ns_ > 1'000'000'000) purge(now);
  }

  [[nodiscard]] std::string json() const {
    const std::scoped_lock lock(mu_);
    std::ostringstream os;
    os << "{\"batches\": " << batches_ << ", \"batched_ops\": " << batched_ops_
       << ", \"batch_wait_us\": " << histogram_json(batch_wait_us_)
       << ", \"order_us\": " << histogram_json(order_us_)
       << ", \"view_change_sent_ns\": {";
    const char* sep = "";
    for (const auto& [view, ns] : view_change_sent_) {
      os << sep << "\"" << view << "\": " << ns;
      sep = ", ";
    }
    os << "}, \"new_view_ns\": {";
    sep = "";
    for (const auto& [view, ns] : new_view_) {
      os << sep << "\"" << view << "\": " << ns;
      sep = ", ";
    }
    os << "}, \"checkpoints\": {";
    sep = "";
    for (const auto& [seq, digest] : checkpoints_) {
      os << sep << "\"" << seq << "\": \"" << digest.hex() << "\"";
      sep = ", ";
    }
    os << "}}";
    return os.str();
  }

 private:
  /// This replica's own batch cut, once per (view, seq): the PrePrepare
  /// is broadcast, so every copy but the first is skipped.
  template <typename PrePrepare>
  [[nodiscard]] std::optional<std::pair<View, pbft::RequestBatch>> own_cut(
      const std::optional<PrePrepare>& pp) {
    if (!pp || pp->sender != self_ || pp->batch.empty()) return std::nullopt;
    if (!cut_.insert({pp->view, pp->seq}).second) return std::nullopt;
    auto batch = pbft::RequestBatch::deserialize(pp->batch);
    if (!batch) return std::nullopt;
    return std::pair{pp->view, std::move(*batch)};
  }

  void on_pre_prepare(const net::Envelope& env, std::int64_t now) {
    const auto cut =
        stack_ == Stack::Pbft
            ? own_cut(pbft::PrePrepare::deserialize(env.payload))
            : own_cut(splitbft::SplitPrePrepare::deserialize(env.payload));
    if (!cut) return;
    const auto& [view, batch] = *cut;
    ++batches_;
    batched_ops_ += batch.requests.size();
    // Requests that reached this replica before it led `view` waited out a
    // view change, not a batch: they are outage time, not batching time.
    const auto led = leader_since_.find(view);
    for (const auto& req : batch.requests) {
      const RequestKey key{req.client, req.timestamp};
      const auto it = arrivals_.find(key);
      if (it != arrivals_.end()) {
        if (led != leader_since_.end() && it->second >= led->second) {
          batch_wait_us_.record(
              static_cast<Micros>((now - it->second) / 1000));
        }
        arrivals_.erase(it);
      }
      preprepared_[key] = now;
    }
  }

  void note_new_view(const net::Envelope& env, std::int64_t now, bool led) {
    auto nv = pbft::NewView::deserialize(env.payload);
    if (!nv) return;
    new_view_.try_emplace(nv->new_view, now);
    if (led) leader_since_.try_emplace(nv->new_view, now);
  }

  void purge(std::int64_t now) {
    last_purge_ns_ = now;
    const std::int64_t horizon = now - 10'000'000'000LL;
    std::erase_if(arrivals_,
                  [horizon](const auto& kv) { return kv.second < horizon; });
    std::erase_if(preprepared_,
                  [horizon](const auto& kv) { return kv.second < horizon; });
    if (cut_.size() > 4096) {
      cut_.erase(cut_.begin(), std::next(cut_.begin(), 2048));
    }
  }

  Stack stack_;
  ReplicaId self_;
  mutable std::mutex mu_;
  std::unordered_map<RequestKey, std::int64_t, RequestKeyHash> arrivals_;
  std::unordered_map<RequestKey, std::int64_t, RequestKeyHash> preprepared_;
  std::set<std::pair<View, SeqNum>> cut_;
  std::map<View, std::int64_t> leader_since_;
  std::map<View, std::int64_t> view_change_sent_;
  std::map<View, std::int64_t> new_view_;
  std::map<SeqNum, Digest> checkpoints_;
  LatencyHistogram batch_wait_us_;
  LatencyHistogram order_us_;
  std::uint64_t batches_{0};
  std::uint64_t batched_ops_{0};
  std::int64_t last_purge_ns_{0};
};

// ------------------------------------------------------- traced replica

/// One replica of either stack, assembled exactly like ReplicaNode but
/// with every layer wrapped.
class TracedReplica {
 public:
  TracedReplica(const Options& options, const ClusterTopology& topology,
                ReplicaId replica)
      : stack_(options.stack),
        counters_(std::make_shared<perfbench::AppCounters>()),
        attestation_(options.seed ^ kAttestationSalt),
        sealing_(options.seed ^ kSealingSalt) {
    const pbft::Config config = options.protocol;
    const pbft::ClientDirectory directory(kDirectorySeed);
    auto counters = counters_;
    apps::AppFactory app_factory = [counters] {
      return std::make_unique<perfbench::TracedApp>(
          std::make_unique<apps::KvStore>(), counters);
    };

    if (stack_ == Stack::Pbft) {
      crypto::KeyRing keyring(crypto::Scheme::HmacShared,
                              options.seed ^ kPbftKeyringSalt);
      for (ReplicaId r = 0; r < config.n; ++r) {
        keyring.add_principal(principal::pbft_replica(r));
      }
      runner_ = std::make_shared<perfbench::TracedRunner>(
          runner::make_runner(options.workers));
      pbft_ = std::make_unique<pbft::Replica>(
          config, replica,
          std::make_shared<perfbench::TracedSigner>(
              keyring.signer(principal::pbft_replica(replica))),
          std::make_shared<perfbench::TracedVerifier>(keyring.verifier()),
          directory, app_factory, /*auth=*/nullptr, runner_);
      return;
    }

    crypto::KeyRing keyring(crypto::Scheme::HmacShared,
                            options.seed ^ kSplitKeyringSalt);
    Rng rng(options.seed ^ kClusterRngSalt);
    crypto::Key32 exec_group_key;
    for (auto& b : exec_group_key) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    for (ReplicaId r = 0; r < config.n; ++r) {
      for (const Compartment c :
           {Compartment::Preparation, Compartment::Confirmation,
            Compartment::Execution}) {
        keyring.add_principal(principal::enclave({r, c}));
      }
    }
    crypto::Key32 dh_secret{};
    for (ReplicaId r = 0; r <= replica; ++r) {
      dh_secret = crypto::x25519_keygen(rng);
    }
    const auto signer = [&](Compartment c) {
      return std::make_shared<perfbench::TracedSigner>(
          keyring.signer(principal::enclave({replica, c})));
    };
    const auto verifier =
        std::make_shared<perfbench::TracedVerifier>(keyring.verifier());

    // splitbft::SplitbftReplica's assembly with the default
    // ReplicaOptions of ReplicaNode (simulation cost model, no real-time
    // charge, client_master_secret = the directory seed).
    auto prep = std::make_unique<splitbft::PrepCompartment>(
        config, replica, signer(Compartment::Preparation), verifier,
        directory, Bytes{});
    {
      const Digest m = prep->measurement();
      prep->set_quote_fn([this, m](ByteView report_data) {
        return attestation_.issue(m, report_data).serialize();
      });
    }
    auto conf = std::make_unique<splitbft::ConfCompartment>(
        config, replica, signer(Compartment::Confirmation), verifier);
    const Digest exec_measurement =
        splitbft::compartment_measurement(Compartment::Execution);
    runner_ = std::make_shared<perfbench::TracedRunner>(
        runner::make_runner(options.workers));
    auto exec = std::make_unique<splitbft::ExecCompartment>(
        config, replica, signer(Compartment::Execution), verifier, directory,
        splitbft::plain_app(app_factory), exec_group_key, dh_secret,
        sealing_.sealing_key(exec_measurement), &block_store_, runner_);
    exec_ = exec.get();
    exec->set_quote_fn([this, exec_measurement](ByteView report_data) {
      return attestation_.issue(exec_measurement, report_data).serialize();
    });
    for (std::uint32_t i = 0; i < options.clients + 2 * topology.loadgens;
         ++i) {
      const ClientId id = kFirstClientId + i;
      exec->install_session(id, workload::session_key(options.seed, id));
    }

    const splitbft::LogicDecorator decorate =
        [](Compartment type,
           std::unique_ptr<splitbft::CompartmentLogic> inner)
        -> std::unique_ptr<splitbft::CompartmentLogic> {
      const Kind kind = type == Compartment::Preparation    ? Kind::PrepDeliver
                        : type == Compartment::Confirmation ? Kind::ConfDeliver
                                                            : Kind::ExecDeliver;
      return std::make_unique<perfbench::TracedLogic>(kind, std::move(inner));
    };
    const auto host = [&](Compartment type,
                          std::unique_ptr<splitbft::CompartmentLogic> logic) {
      return std::make_unique<tee::EnclaveHost>(
          std::make_unique<splitbft::CompartmentEnclave>(
              decorate(type, std::move(logic))),
          tee::CostModel::simulation(), /*charge_real_time=*/false);
    };
    broker_ = std::make_unique<splitbft::Broker>(
        config, replica, host(Compartment::Preparation, std::move(prep)),
        host(Compartment::Confirmation, std::move(conf)),
        host(Compartment::Execution, std::move(exec)));
  }

  [[nodiscard]] std::vector<net::Envelope> handle(const net::Envelope& env,
                                                  Micros now) {
    const std::scoped_lock lock(mutex_);
    if (pbft_) {
      const Span span(Kind::PbftHandle, env.type);
      return pbft_->handle(env, now);
    }
    const Span span(Kind::BrokerHandle, env.type);
    return broker_->handle(env, now);
  }
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now) {
    const std::scoped_lock lock(mutex_);
    if (pbft_) {
      const Span span(Kind::PbftTick);
      return pbft_->tick(now);
    }
    const Span span(Kind::BrokerTick);
    return broker_->tick(now);
  }

  void register_with(net::TcpTransport& transport, ReplicaId replica,
                     net::DeliveryFn handler) const {
    if (stack_ == Stack::Pbft) {
      transport.register_endpoint(principal::pbft_replica(replica),
                                  std::move(handler));
    } else {
      transport.register_endpoint_group(
          {principal::splitbft_env(replica),
           principal::enclave({replica, Compartment::Preparation}),
           principal::enclave({replica, Compartment::Confirmation}),
           principal::enclave({replica, Compartment::Execution})},
          std::move(handler));
    }
  }

  /// Post-run state, read once the transport and ticker have stopped.
  [[nodiscard]] std::string final_json() const {
    const std::scoped_lock lock(mutex_);
    const SeqNum last = pbft_ ? pbft_->last_executed() : exec_->last_executed();
    const Digest digest =
        pbft_ ? pbft_->app().state_digest() : exec_->app().state_digest();
    std::ostringstream os;
    os << "{\"last_executed\": " << last << ", \"app_digest\": \""
       << digest.hex() << "\", \"ops_executed\": "
       << counters_->executed.load() << ", \"first_execute_ns\": "
       << counters_->first_execute_ns.load() << ", \"state_bytes\": "
       << counters_->state_bytes.load()
       << ", \"runner_units\": " << runner_->queued()
       << ", \"runner_queue_wait_ns\": " << runner_->queue_wait_ns() << "}";
    return os.str();
  }

 private:
  Stack stack_;
  std::shared_ptr<perfbench::AppCounters> counters_;
  tee::AttestationService attestation_;
  tee::SealingService sealing_;
  tee::MemoryBlockStore block_store_;
  std::shared_ptr<perfbench::TracedRunner> runner_;
  std::unique_ptr<pbft::Replica> pbft_;
  std::unique_ptr<splitbft::Broker> broker_;
  splitbft::ExecCompartment* exec_{nullptr};
  mutable std::mutex mutex_;
};

[[nodiscard]] std::string transport_json(const net::TransportStats& s) {
  std::ostringstream os;
  os << "{\"bytes_in\": " << s.bytes_in << ", \"bytes_out\": " << s.bytes_out
     << ", \"frames_in\": " << s.frames_in
     << ", \"frames_out\": " << s.frames_out
     << ", \"writev_calls\": " << s.writev_calls
     << ", \"connects\": " << s.connects
     << ", \"reconnects\": " << s.reconnects << ", \"accepts\": " << s.accepts
     << ", \"backpressure_drops\": " << s.backpressure_drops
     << ", \"unrouted_drops\": " << s.unrouted_drops
     << ", \"decode_errors\": " << s.decode_errors
     << ", \"state_bytes_in\": " << s.state_bytes_in << "}";
  return os.str();
}

[[nodiscard]] std::string spans_json() {
  const auto& tracer = perfbench::Tracer::get();
  std::ostringstream os;
  os << "{";
  for (std::size_t k = 0; k < perfbench::kKindNames.size(); ++k) {
    const auto& t = tracer.totals(static_cast<Kind>(k));
    if (k) os << ", ";
    os << "\"" << perfbench::kKindNames[k] << "\": {\"calls\": "
       << t.calls.load() << ", \"total_ns\": " << t.total_ns.load()
       << ", \"self_ns\": " << t.self_ns.load() << "}";
  }
  os << "}";
  return os.str();
}

int run_replica(int argc, char** argv) {
  const std::int64_t start_ns = now_ns();
  const ClusterTopology topology = topology_from(argc, argv);
  const Options options = options_from(argc, argv, topology.replicas);
  const auto replica =
      static_cast<ReplicaId>(arg_u64(argc, argv, "--replica", 0));
  const char* trace_out = arg_value(argc, argv, "--trace-out", nullptr);
  if (!trace_out) {
    std::fprintf(stderr, "perfbench_node replica: --trace-out is required\n");
    return 2;
  }

  auto transport = topology.make_transport(replica);
  TracedReplica node(options, topology, replica);
  ProtocolEvents events(options.stack, replica, start_ns);

  net::TcpTransport* tx = transport.get();
  node.register_with(
      *transport, replica, [&node, &events, tx](net::Envelope env) {
        events.inbound(env, now_ns());
        auto outs = node.handle(env, workload::wall_clock_us());
        events.outbound(outs, now_ns());
        for (auto& out : outs) tx->send(std::move(out));
      });
  if (!transport->start()) {
    std::fprintf(stderr, "perfbench_node replica %u: %s\n", replica,
                 transport->last_error().c_str());
    return 1;
  }

  std::atomic<bool> running{true};
  std::thread ticker([&] {
    while (running.load(std::memory_order_relaxed)) {
      auto outs = node.tick(workload::wall_clock_us());
      events.outbound(outs, now_ns());
      for (auto& out : outs) tx->send(std::move(out));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::this_thread::sleep_for(
      std::chrono::seconds(arg_u64(argc, argv, "--run-secs", 10)));
  const net::TransportStats stats = transport->stats();
  running.store(false);
  ticker.join();
  transport->shutdown();

  const std::string spans_path = std::string(trace_out) + ".spans.tsv";
  perfbench::Tracer::get().write_spans(spans_path);
  std::ofstream out(trace_out);
  out << "{\"replica\": " << replica << ", \"stack\": \""
      << workload::to_string(options.stack) << "\", \"start_ns\": "
      << start_ns << ", \"transport\": " << transport_json(stats)
      << ", \"spans\": " << spans_json() << ", \"spans_recorded\": "
      << perfbench::Tracer::get().spans_recorded()
      << ", \"span_ring\": \"" << spans_path << "\""
      << ", \"protocol\": " << events.json()
      << ", \"final\": " << node.final_json() << "}\n";
  return out ? 0 : 1;
}

// ---------------------------------------------------------------- probe

// A cluster that has not committed the probe's request by then is broken.
constexpr std::uint64_t kProbeTimeoutS = 20;

template <typename Engine>
int probe_with(const Options& options, const ClusterTopology& topology,
               std::uint32_t loadgen, Engine engine) {
  auto transport = topology.make_transport(topology.replicas + loadgen);
  std::mutex mu;
  std::condition_variable cv;
  std::int64_t commit_ns = 0;
  const ClientId id = engine.id();
  transport->register_endpoint(
      principal::client(id), [&](net::Envelope env) {
        std::vector<net::Envelope> outs;
        {
          const std::scoped_lock lock(mu);
          if (commit_ns != 0) return;
          if (env.type == pbft::tag(pbft::MsgType::Reply)) {
            if (engine.on_reply(env, workload::wall_clock_us(), outs)) {
              commit_ns = now_ns();
              cv.notify_all();
            }
          } else if constexpr (requires(Engine& e, const net::Envelope& v,
                                        Micros t) { e.on_message(v, t); }) {
            outs = engine.on_message(env, workload::wall_clock_us());
          }
        }
        for (auto& out : outs) transport->send(std::move(out));
      });
  if (!transport->start()) {
    std::fprintf(stderr, "perfbench_node probe: %s\n",
                 transport->last_error().c_str());
    return 1;
  }
  workload::OpGenerator gen(options, options.seed * 1'000'003 + id);
  std::vector<net::Envelope> first;
  {
    const std::scoped_lock lock(mu);
    first = engine.submit(gen.next().op, workload::wall_clock_us());
  }
  for (auto& env : first) transport->send(std::move(env));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(kProbeTimeoutS);
  std::unique_lock lock(mu);
  while (commit_ns == 0 && std::chrono::steady_clock::now() < deadline) {
    cv.wait_for(lock, std::chrono::milliseconds(5));
    if (commit_ns != 0) break;
    auto retries = engine.tick(workload::wall_clock_us());
    lock.unlock();
    for (auto& env : retries) transport->send(std::move(env));
    lock.lock();
  }
  const std::int64_t result = commit_ns;
  lock.unlock();
  transport->shutdown();
  if (result == 0) {
    std::fprintf(stderr, "perfbench_node probe: no commit before timeout\n");
    return 1;
  }
  std::printf("{\"commit_ns\": %lld}\n", static_cast<long long>(result));
  return 0;
}

int run_probe(int argc, char** argv) {
  const ClusterTopology topology = topology_from(argc, argv);
  const Options options = options_from(argc, argv, topology.replicas);
  const auto loadgen =
      static_cast<std::uint32_t>(arg_u64(argc, argv, "--loadgen", 0));
  const ClientId id = kFirstClientId + static_cast<ClientId>(arg_u64(
                                           argc, argv, "--client-index", 0));
  if (topology.node_of(principal::client(id)) != topology.replicas + loadgen) {
    std::fprintf(stderr, "perfbench_node probe: client %llu is not hosted "
                         "on loadgen %u\n",
                 static_cast<unsigned long long>(id), loadgen);
    return 2;
  }
  const pbft::ClientDirectory directory(kDirectorySeed);
  constexpr Micros kRetryUs = 100'000;
  if (options.stack == Stack::Pbft) {
    return probe_with(options, topology, loadgen,
                      pbft::Client(options.protocol, id, directory, kRetryUs));
  }
  tee::AttestationService attestation(options.seed ^ kAttestationSalt);
  splitbft::SplitClient::TrustAnchors anchors;
  anchors.attestation_root = attestation.root_public_key();
  splitbft::SplitClient engine(options.protocol, id, directory, anchors,
                               options.seed, kRetryUs);
  engine.adopt_session(workload::session_key(options.seed, id));
  return probe_with(options, topology, loadgen, std::move(engine));
}

// ------------------------------------------------------------- arrivals

int run_arrivals(int argc, char** argv) {
  const std::uint64_t seed = arg_u64(argc, argv, "--seed", 42);
  const auto clients = arg_u64(argc, argv, "--clients", 1000);
  const auto loadgens = std::max<std::uint64_t>(
      1, arg_u64(argc, argv, "--loadgens", 1));
  const auto loadgen = arg_u64(argc, argv, "--loadgen", 0);
  const Micros mean = arg_u64(argc, argv, "--interarrival-us", 20'000);
  const Micros from = arg_u64(argc, argv, "--from-us", 0);
  const Micros to = arg_u64(argc, argv, "--to-us", 0);
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < clients; ++i) {
    if (i % loadgens != loadgen) continue;
    const ClientId id = kFirstClientId + i;
    Rng rng((seed * 1'000'003 + id) ^ kStationRngSalt);
    Micros due = std::max<Micros>(1, workload::exponential_us(rng, mean));
    while (due < to) {
      if (due >= from) ++count;
      due += std::max<Micros>(1, workload::exponential_us(rng, mean));
    }
  }
  std::printf("{\"arrivals\": %llu}\n", static_cast<unsigned long long>(count));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "replica") return run_replica(argc, argv);
  if (cmd == "probe") return run_probe(argc, argv);
  if (cmd == "arrivals") return run_arrivals(argc, argv);
  std::fprintf(stderr,
               "usage: perfbench_node replica|probe|arrivals [flags]\n");
  return 2;
}
