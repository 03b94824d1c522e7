#include "runtime/workload/thread_driver.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "net/thread_net.hpp"
#include "runtime/workload/station.hpp"
#include "runtime/workload/tcp_cluster.hpp"

namespace sbft::runtime::workload {
namespace {

template <typename Engine>
Report run_on(const Options& options) {
  // The replicas and clients a one-group deployment's processes would
  // run, assembled the same way, on one in-process network.
  std::vector<std::unique_ptr<SeededReplica>> replicas;
  for (ReplicaId r = 0; r < options.protocol.n; ++r) {
    replicas.push_back(
        std::make_unique<SeededReplica>(options, r, /*loadgens=*/1));
  }
  const SeededClients seeded(options, /*groups=*/1);

  net::ThreadNetwork net;
  for (auto& replica : replicas) {
    SeededReplica* rep = replica.get();
    // One consumer per replica: a SplitBFT broker behind its four
    // principals is one serial event loop anyway.
    net.register_endpoint_group(
        rep->principals(), [rep, &net](net::Envelope env) {
          for (auto& out : rep->handle(env, wall_clock_us())) {
            net.send(std::move(out));
          }
        });
  }

  std::vector<ClientId> clients;
  for (std::uint32_t i = 0; i < options.clients; ++i) {
    clients.push_back(kFirstClientId + i);
  }
  Report report = drive<Engine>(
      options, std::vector<net::ThreadNetwork*>{&net}, clients,
      /*verifier=*/kFirstClientId + options.clients,
      [&](ClientId id) { return seeded.engines<Engine>(id); },
      [&](Micros now) {
        for (auto& replica : replicas) {
          for (auto& out : replica->tick(now)) net.send(std::move(out));
        }
      });
  for (auto& replica : replicas) {
    report.admission_rejects += replica->admission_rejects();
  }
  return report;
}

}  // namespace

Report run_thread_workload(const Options& options) {
  Options group = options;
  group.shards = 1;  // one group: keys derive from the seed unchanged
  return group.stack == Stack::Pbft ? run_on<pbft::Client>(group)
                                    : run_on<splitbft::SplitClient>(group);
}

}  // namespace sbft::runtime::workload
