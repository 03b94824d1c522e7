// State-equivalence of the staged parallel runner: for every worker count
// and pipeline depth, a cluster running SpinOrderedRunner must produce
// byte-identical checkpoint digests, execution histories, application
// state and client-visible results to the serial SyncOrderedRunner
// reference — on both stacks, and with the read fast path under byzantine
// fault injectors (ReadReplyForger, ForgingReadExec) in the mix.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "apps/kv_store.hpp"
#include "faults/byzantine_compartments.hpp"
#include "faults/pbft_attack.hpp"
#include "runtime/pbft_cluster.hpp"
#include "runtime/splitbft_cluster.hpp"

namespace sbft::runtime {
namespace {

// Threaded counts only: make_runner(1) is the serial reference itself.
constexpr std::size_t kWorkerCounts[] = {2, 4, 8};
constexpr std::size_t kDepths[] = {1, 4};

[[nodiscard]] apps::AppFactory kv_factory() {
  return [] { return std::make_unique<apps::KvStore>(); };
}

/// Everything the serial and parallel runs must agree on, byte for byte.
struct Fingerprint {
  std::vector<std::map<SeqNum, Digest>> histories;  // per replica
  std::vector<Digest> app_digests;                  // per replica
  std::vector<SeqNum> last_stable;                  // per replica
  std::vector<std::optional<Bytes>> results;        // per client op

  bool operator==(const Fingerprint&) const = default;
};

[[nodiscard]] std::map<SeqNum, Digest> replica_history(PbftCluster& c,
                                                       ReplicaId r) {
  return c.replica(r).execution_history();
}
[[nodiscard]] Digest replica_app_digest(PbftCluster& c, ReplicaId r) {
  return c.replica(r).app().state_digest();
}
[[nodiscard]] SeqNum replica_last_stable(PbftCluster& c, ReplicaId r) {
  return c.replica(r).last_stable();
}

[[nodiscard]] std::map<SeqNum, Digest> replica_history(SplitbftCluster& c,
                                                       ReplicaId r) {
  return c.replica(r).exec().execution_history();
}
[[nodiscard]] Digest replica_app_digest(SplitbftCluster& c, ReplicaId r) {
  return c.replica(r).exec().app().state_digest();
}
[[nodiscard]] SeqNum replica_last_stable(SplitbftCluster& c, ReplicaId r) {
  return c.replica(r).exec().last_stable();
}

/// "k3"-style keys/values; built via += because GCC 12 emits a bogus
/// -Wrestrict for operator+(const char*, std::string&&) when fully inlined.
[[nodiscard]] Bytes tag_bytes(char tag, std::size_t n) {
  std::string s(1, tag);
  s += std::to_string(n);
  return to_bytes(s);
}

/// Mixed PUT/GET workload over three clients; reads exercise the fast path
/// when the config enables it.
template <typename Cluster>
[[nodiscard]] Fingerprint run_workload(Cluster& cluster, std::size_t n) {
  Fingerprint fp;
  const ClientId clients[] = {kFirstClientId, kFirstClientId + 1,
                              kFirstClientId + 2};
  for (std::size_t i = 0; i < 60; ++i) {
    const ClientId c = clients[i % 3];
    const Bytes key = tag_bytes('k', i % 7);
    if (i % 4 == 3) {
      fp.results.push_back(
          cluster.execute_read(c, apps::kv::encode_get(key)));
    } else {
      fp.results.push_back(cluster.execute(
          c, apps::kv::encode_put(key, tag_bytes('v', i))));
    }
  }
  cluster.harness().run_for(2'000'000);  // quiesce: checkpoints stabilize
  for (ReplicaId r = 0; r < static_cast<ReplicaId>(n); ++r) {
    fp.histories.push_back(replica_history(cluster, r));
    fp.app_digests.push_back(replica_app_digest(cluster, r));
    fp.last_stable.push_back(replica_last_stable(cluster, r));
  }
  return fp;
}

[[nodiscard]] Fingerprint run_pbft(std::size_t workers, std::size_t depth,
                                   bool inject_forger) {
  PbftClusterOptions options;
  options.seed = 1337;  // identical seed across worker counts
  options.config.read_path = true;
  options.config.pipeline_depth = depth;
  options.config.checkpoint_interval = 10;
  options.exec_workers = workers;
  PbftCluster cluster(options, kv_factory());
  if (inject_forger) {
    // Replica 3 forges read replies (valid client MACs, attacker value).
    // The honest quorum outvotes it; the staged runner must not change a
    // byte of that outcome.
    auto forger = std::make_shared<faults::ReadReplyForger>(
        cluster.replica_actor(3), cluster.directory(), to_bytes("forged!"));
    cluster.harness().replace_actor(principal::pbft_replica(3), forger);
  }
  for (ClientId c = kFirstClientId; c < kFirstClientId + 3; ++c) {
    cluster.add_client(c);
  }
  return run_workload(cluster, options.config.n);
}

[[nodiscard]] Fingerprint run_splitbft(std::size_t workers, std::size_t depth,
                                       bool inject_forger) {
  SplitClusterOptions options;
  options.seed = 4242;
  options.config.read_path = true;
  options.config.pipeline_depth = depth;
  options.config.checkpoint_interval = 10;
  options.exec_workers = workers;
  if (inject_forger) {
    // Replica 1's Execution enclave serves forged read votes.
    options.compartment_faults[1] = [](ReplicaId, const crypto::KeyRing&) {
      return [](Compartment type,
                std::unique_ptr<splitbft::CompartmentLogic> inner)
                 -> std::unique_ptr<splitbft::CompartmentLogic> {
        if (type != Compartment::Execution) return inner;
        return std::make_unique<faults::ForgingReadExec>(
            std::move(inner), pbft::ClientDirectory(0x5ec7e7),
            to_bytes("forged-read"));
      };
    };
  }
  SplitbftCluster cluster(options, splitbft::plain_app(kv_factory()));
  for (ClientId c = kFirstClientId; c < kFirstClientId + 3; ++c) {
    cluster.add_client(c);
  }
  EXPECT_TRUE(cluster.setup_sessions());
  return run_workload(cluster, options.config.n);
}

TEST(RunnerDeterminism, PbftParallelMatchesSerialReference) {
  for (const std::size_t depth : kDepths) {
    const Fingerprint serial =
        run_pbft(/*workers=*/0, depth, /*inject_forger=*/false);
    ASSERT_FALSE(serial.histories.empty());
    ASSERT_GT(serial.histories[0].size(), 0u) << "workload must execute";
    for (const std::size_t workers : kWorkerCounts) {
      const Fingerprint parallel =
          run_pbft(workers, depth, /*inject_forger=*/false);
      EXPECT_EQ(parallel, serial)
          << "workers=" << workers << " depth=" << depth;
    }
  }
}

TEST(RunnerDeterminism, SplitbftParallelMatchesSerialReference) {
  for (const std::size_t depth : kDepths) {
    const Fingerprint serial =
        run_splitbft(/*workers=*/0, depth, /*inject_forger=*/false);
    ASSERT_FALSE(serial.histories.empty());
    ASSERT_GT(serial.histories[0].size(), 0u) << "workload must execute";
    for (const std::size_t workers : kWorkerCounts) {
      const Fingerprint parallel =
          run_splitbft(workers, depth, /*inject_forger=*/false);
      EXPECT_EQ(parallel, serial)
          << "workers=" << workers << " depth=" << depth;
    }
  }
}

TEST(RunnerDeterminism, PbftMatchesSerialUnderReadReplyForger) {
  const Fingerprint serial =
      run_pbft(/*workers=*/0, /*depth=*/4, /*inject_forger=*/true);
  ASSERT_GT(serial.histories[0].size(), 0u);
  for (const std::size_t workers : kWorkerCounts) {
    const Fingerprint parallel =
        run_pbft(workers, /*depth=*/4, /*inject_forger=*/true);
    EXPECT_EQ(parallel, serial) << "workers=" << workers;
  }
}

TEST(RunnerDeterminism, SplitbftMatchesSerialUnderForgingReadExec) {
  const Fingerprint serial =
      run_splitbft(/*workers=*/0, /*depth=*/4, /*inject_forger=*/true);
  ASSERT_GT(serial.histories[0].size(), 0u);
  for (const std::size_t workers : kWorkerCounts) {
    const Fingerprint parallel =
        run_splitbft(workers, /*depth=*/4, /*inject_forger=*/true);
    EXPECT_EQ(parallel, serial) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace sbft::runtime
