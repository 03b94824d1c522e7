#include "runtime/workload/tcp_cluster.hpp"

#include <chrono>
#include <utility>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"
#include "crypto/keyring.hpp"
#include "crypto/x25519.hpp"
#include "pbft/replica.hpp"
#include "runtime/runner/runner.hpp"
#include "runtime/workload/station.hpp"
#include "shard/router.hpp"
#include "splitbft/replica.hpp"
#include "tee/attestation.hpp"
#include "tee/sealing.hpp"

namespace sbft::runtime::workload {

namespace {

// Key-derivation offsets: every process of a deployment reconstructs the
// SAME keyring/attestation/group-key material from the workload seed.
constexpr std::uint64_t kPbftKeyringSalt = 0x6b657972696e67ULL;
constexpr std::uint64_t kSplitKeyringSalt = 0x5b5f7b657972ULL;
constexpr std::uint64_t kAttestationSalt = 0xa77e57ULL;
constexpr std::uint64_t kSealingSalt = 0x5ea1ULL;
constexpr std::uint64_t kClusterRngSalt = 0x5b5f636c7573ULL;
constexpr std::uint64_t kDirectorySeed = 0x5ec7e7;

}  // namespace

std::uint32_t ClusterTopology::node_of(principal::Id id) const noexcept {
  if (id >= kFirstClientId) {
    return replicas +
           static_cast<std::uint32_t>((id - kFirstClientId) % loadgens);
  }
  if (id >= principal::splitbft_env(0)) {
    return static_cast<std::uint32_t>(id - principal::splitbft_env(0));
  }
  if (id >= principal::enclave({0, Compartment::Preparation}) &&
      id < principal::hybrid_replica(0)) {
    return static_cast<std::uint32_t>(
        (id - principal::enclave({0, Compartment::Preparation})) /
        kNumCompartments);
  }
  if (id >= principal::pbft_replica(0)) {
    return static_cast<std::uint32_t>(id - principal::pbft_replica(0));
  }
  return 0;
}

net::TcpTransport::RouteFn ClusterTopology::route() const {
  const ClusterTopology copy{replicas, loadgens, {}};
  return [copy](principal::Id id) { return copy.node_of(id); };
}

std::unique_ptr<net::TcpTransport> ClusterTopology::make_transport(
    std::uint32_t node, net::TcpTransport::Options options) const {
  options.listen_addr = addrs.at(node);
  if (options.state_transfer_types.empty()) {
    // Classify recovery traffic for TransportStats (both stacks use the
    // PBFT state-transfer message family).
    options.state_transfer_types = {
        pbft::tag(pbft::MsgType::StateRequest),
        pbft::tag(pbft::MsgType::StateResponse),
        pbft::tag(pbft::MsgType::StateChunkRequest),
        pbft::tag(pbft::MsgType::StateChunkResponse)};
  }
  auto transport =
      std::make_unique<net::TcpTransport>(node, std::move(options), route());
  for (std::uint32_t other = 0; other < nodes(); ++other) {
    if (other != node) transport->add_peer(other, addrs.at(other));
  }
  return transport;
}

// ---------------------------------------------------------- SeededReplica

SeededReplica::SeededReplica(const Options& options, ReplicaId replica,
                             std::uint32_t loadgens)
    : replica_(replica) {
  const pbft::Config config = options.protocol;
  const pbft::ClientDirectory directory(kDirectorySeed);

  if (options.stack == Stack::Pbft) {
    crypto::KeyRing keyring(crypto::Scheme::HmacShared,
                            options.seed ^ kPbftKeyringSalt);
    for (ReplicaId r = 0; r < config.n; ++r) {
      keyring.add_principal(principal::pbft_replica(r));
    }
    pbft_ = std::make_unique<pbft::Replica>(
        config, replica_, keyring.signer(principal::pbft_replica(replica_)),
        keyring.verifier(), directory,
        [] { return std::make_unique<apps::KvStore>(); },
        /*auth=*/nullptr, runner::make_runner(options.workers));
    return;
  }

  crypto::KeyRing keyring(crypto::Scheme::HmacShared,
                          options.seed ^ kSplitKeyringSalt);
  tee::AttestationService attestation(options.seed ^ kAttestationSalt);
  tee::SealingService sealing(options.seed ^ kSealingSalt);
  Rng rng(options.seed ^ kClusterRngSalt);
  crypto::Key32 exec_group_key;
  for (auto& b : exec_group_key) b = static_cast<std::uint8_t>(rng.next_u64());

  for (ReplicaId r = 0; r < config.n; ++r) {
    for (const Compartment c :
         {Compartment::Preparation, Compartment::Confirmation,
          Compartment::Execution}) {
      keyring.add_principal(principal::enclave({r, c}));
    }
  }

  splitbft::ReplicaOptions replica_options;
  replica_options.config = config;
  // Simulation-mode cost model: a wall-clock run measures the software
  // stack itself; burning synthetic SGX crossing delays as real CPU time
  // would only measure the cost model.
  replica_options.cost_model = tee::CostModel::simulation();
  replica_options.charge_real_time = false;
  replica_options.exec_workers = options.workers;

  // Every replica's DH key comes from ONE rng stream; replay that stream
  // so replica r's key is identical in every process.
  crypto::Key32 dh_secret{};
  for (ReplicaId r = 0; r <= replica_; ++r) {
    dh_secret = crypto::x25519_keygen(rng);
  }
  split_ = std::make_shared<splitbft::SplitbftReplica>(
      replica_options, replica_, keyring, attestation, sealing, exec_group_key,
      dh_secret,
      splitbft::plain_app([] { return std::make_unique<apps::KvStore>(); }));

  // Out-of-band session provisioning (see workload::session_key). The
  // extra ids past `clients` cover the per-loadgen audit verifiers a run
  // appends after the load stops.
  for (std::uint32_t i = 0; i < options.clients + 2 * loadgens; ++i) {
    const ClientId id = kFirstClientId + i;
    split_->exec_mutable().install_session(id, session_key(options.seed, id));
  }
}

SeededReplica::~SeededReplica() = default;

std::vector<net::Envelope> SeededReplica::handle(const net::Envelope& env,
                                                 Micros now) {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->handle(env, now) : split_->handle(env, now);
}

std::vector<net::Envelope> SeededReplica::tick(Micros now) {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->tick(now) : split_->tick(now);
}

std::vector<principal::Id> SeededReplica::principals() const {
  if (pbft_) return {principal::pbft_replica(replica_)};
  return {principal::splitbft_env(replica_),
          principal::enclave({replica_, Compartment::Preparation}),
          principal::enclave({replica_, Compartment::Confirmation}),
          principal::enclave({replica_, Compartment::Execution})};
}

std::uint64_t SeededReplica::admission_rejects() const {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->admission_rejects()
               : split_->broker().admission_rejects();
}

SeqNum SeededReplica::last_executed() const {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->last_executed() : split_->exec().last_executed();
}

SeqNum SeededReplica::last_stable() const {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->last_stable() : split_->exec().last_stable();
}

bool SeededReplica::awaiting_state() const {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->awaiting_state() : split_->exec().awaiting_state();
}

pbft::StateTransferStats SeededReplica::state_transfer_stats() const {
  const std::scoped_lock lock(mutex_);
  return pbft_ ? pbft_->state_transfer_stats()
               : split_->exec().state_transfer_stats();
}

// ---------------------------------------------------------- SeededClients

SeededClients::SeededClients(const Options& options, std::uint32_t groups)
    : config_(options.protocol), directory_(kDirectorySeed) {
  for (std::uint32_t g = 0; g < groups; ++g) {
    seeds_.push_back(shard_options(options, g).seed);
    tee::AttestationService attestation(seeds_[g] ^ kAttestationSalt);
    anchors_.push_back({attestation.root_public_key()});
  }
}

// ------------------------------------------------------------ ReplicaNode

ReplicaNode::ReplicaNode(const Options& options,
                         const ClusterTopology& topology, ReplicaId replica,
                         net::TcpTransport::Options transport_options)
    : SeededReplica(options, replica, topology.loadgens),
      transport_(
          topology.make_transport(replica, std::move(transport_options))) {}

ReplicaNode::~ReplicaNode() { stop(); }

bool ReplicaNode::start() {
  if (running_.exchange(true)) return true;
  transport_->register_endpoint_group(
      principals(), [this](net::Envelope env) {
        for (auto& out : handle(env, wall_clock_us())) {
          transport_->send(std::move(out));
        }
      });
  if (!transport_->start()) {
    running_.store(false);
    return false;
  }
  ticker_ = std::thread([this] { ticker_main(); });
  return true;
}

void ReplicaNode::ticker_main() {
  while (running_.load(std::memory_order_relaxed)) {
    for (auto& out : tick(wall_clock_us())) transport_->send(std::move(out));
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void ReplicaNode::stop() {
  if (!running_.exchange(false)) return;
  if (ticker_.joinable()) ticker_.join();
  transport_->shutdown();
}

// -------------------------------------------------------------- sharding

std::vector<ClusterTopology> sharded_topologies(
    std::uint32_t shards, std::uint32_t replicas, std::uint32_t loadgens,
    const std::vector<std::string>& flat_addrs) {
  const std::uint32_t span = replicas + loadgens;
  std::vector<ClusterTopology> out;
  out.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ClusterTopology topology;
    topology.replicas = replicas;
    topology.loadgens = loadgens;
    topology.addrs.assign(
        flat_addrs.begin() + static_cast<std::ptrdiff_t>(s) * span,
        flat_addrs.begin() + static_cast<std::ptrdiff_t>(s + 1) * span);
    out.push_back(std::move(topology));
  }
  return out;
}

Options shard_options(Options options, std::uint32_t shard) {
  if (options.shards > 1) options.seed = shard::shard_seed(options.seed, shard);
  return options;
}

// -------------------------------------------------------------- loadgen

namespace {

/// The first client id past the load clients that `node_of()` routes to
/// this loadgen node (ids round-robin over loadgens, so the audit
/// verifier must land on the node whose transports it reads from).
[[nodiscard]] ClientId audit_verifier_id(const Options& options,
                                         std::uint32_t loadgens,
                                         std::uint32_t loadgen_index) {
  const std::uint32_t span =
      (options.clients + loadgens - 1) / loadgens * loadgens;
  return kFirstClientId + span + loadgen_index;
}

template <typename Engine>
Report run_loadgen(const Options& options, std::uint32_t loadgens,
                   std::uint32_t loadgen_index,
                   const std::vector<net::TcpTransport*>& nets) {
  const SeededClients seeded(options,
                             static_cast<std::uint32_t>(nets.size()));
  std::vector<ClientId> clients;
  for (std::uint32_t i = 0; i < options.clients; ++i) {
    if (i % loadgens == loadgen_index) clients.push_back(kFirstClientId + i);
  }
  // Replica timers live in the replica processes: the loadgen ticker only
  // paces clients.
  return drive<Engine>(
      options, nets, clients,
      audit_verifier_id(options, loadgens, loadgen_index),
      [&](ClientId id) { return seeded.engines<Engine>(id); }, [](Micros) {});
}

}  // namespace

Report run_tcp_workload(const Options& options,
                        const std::vector<ClusterTopology>& topologies,
                        std::uint32_t loadgen_index,
                        net::TcpTransport::Options transport_options) {
  if (topologies.empty() || topologies.size() != options.shards) {
    return Report{};  // not one topology per group: an unsustained zero run
  }
  std::vector<std::unique_ptr<net::TcpTransport>> owned;
  std::vector<net::TcpTransport*> nets;
  for (const auto& topology : topologies) {
    owned.push_back(topology.make_transport(topology.replicas + loadgen_index,
                                            transport_options));
    if (!owned.back()->start()) {
      for (net::TcpTransport* net : nets) net->shutdown();
      return Report{};  // bind failure: report an unsustained zero run
    }
    nets.push_back(owned.back().get());
  }

  const std::uint32_t loadgens = topologies.front().loadgens;
  Report report =
      options.stack == Stack::Pbft
          ? run_loadgen<pbft::Client>(options, loadgens, loadgen_index, nets)
          : run_loadgen<splitbft::SplitClient>(options, loadgens,
                                               loadgen_index, nets);
  for (net::TcpTransport* net : nets) {
    const net::TransportStats stats = net->stats();
    auto& t = report.transport;
    t.bytes_in += stats.bytes_in;
    t.bytes_out += stats.bytes_out;
    t.frames_in += stats.frames_in;
    t.frames_out += stats.frames_out;
    t.writev_calls += stats.writev_calls;
    t.reconnects += stats.reconnects;
    t.backpressure_drops += stats.backpressure_drops;
    t.state_frames_in += stats.state_frames_in;
    t.state_frames_out += stats.state_frames_out;
    t.state_bytes_in += stats.state_bytes_in;
    t.state_bytes_out += stats.state_bytes_out;
  }
  report.transport.frames_per_writev =
      report.transport.writev_calls
          ? static_cast<double>(report.transport.frames_out) /
                static_cast<double>(report.transport.writev_calls)
          : 0.0;
  return report;
}

}  // namespace sbft::runtime::workload
