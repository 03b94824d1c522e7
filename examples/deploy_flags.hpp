// Command-line plumbing shared by the deployment binaries (bft_replica,
// bft_loadgen): flag lookup, the flat address plan, the protocol
// configuration both sides must agree on, and usage errors.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/workload/workload.hpp"

namespace deploy {

[[nodiscard]] inline const char* arg_value(int argc, char** argv,
                                           const char* flag,
                                           const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

[[nodiscard]] inline std::uint64_t arg_u64(int argc, char** argv,
                                           const char* flag,
                                           std::uint64_t fallback) {
  const char* v = arg_value(argc, argv, flag, nullptr);
  return v ? std::strtoull(v, nullptr, 10) : fallback;
}

[[nodiscard]] inline std::uint32_t arg_u32(int argc, char** argv,
                                           const char* flag,
                                           std::uint32_t fallback) {
  return static_cast<std::uint32_t>(arg_u64(argc, argv, flag, fallback));
}

/// Exits 2 with `what` and the usage line unless `ok`.
inline void require(bool ok, const char* usage, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "%s\nusage: %s\n", what.c_str(), usage);
  std::exit(2);
}

/// Listen address of every node of a `nodes`-long flat plan: consecutive
/// ports from --base-port on --host, or sockets under --uds-dir.
[[nodiscard]] inline std::vector<std::string> flat_addrs(int argc,
                                                         char** argv,
                                                         std::uint32_t nodes) {
  const std::string host = arg_value(argc, argv, "--host", "127.0.0.1");
  const auto base_port = arg_u64(argc, argv, "--base-port", 18000);
  const std::string uds_dir = arg_value(argc, argv, "--uds-dir", "");
  std::vector<std::string> addrs;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    addrs.push_back(
        uds_dir.empty()
            ? host + ":" + std::to_string(base_port + node)
            : "unix:" + uds_dir + "/node" + std::to_string(node) + ".sock");
  }
  return addrs;
}

/// Index of `flag`'s value in `choices` (the first choice when the flag is
/// absent); exits 2 with the usage line on any other value.
[[nodiscard]] inline std::size_t arg_choice(
    int argc, char** argv, const char* flag,
    const std::vector<const char*>& choices, const char* usage) {
  const char* v = arg_value(argc, argv, flag, choices.front());
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (std::strcmp(v, choices[i]) == 0) return i;
  }
  require(false, usage,
          std::string(flag) + " " + v + " is not an accepted value");
  return 0;
}

/// Stack, clients, seed, workers, group count and protocol configuration:
/// every process of a deployment must derive the same values.
[[nodiscard]] inline sbft::runtime::workload::Options deployment_options(
    int argc, char** argv, std::uint32_t replicas, std::uint32_t shards,
    const char* usage) {
  using sbft::runtime::workload::Stack;
  sbft::runtime::workload::Options options;
  options.stack =
      arg_choice(argc, argv, "--stack", {"pbft", "splitbft"}, usage) == 0
          ? Stack::Pbft
          : Stack::Splitbft;
  options.clients = arg_u32(argc, argv, "--clients", 1000);
  options.seed = arg_u64(argc, argv, "--seed", 42);
  options.workers = arg_u64(argc, argv, "--workers", 4);
  options.shards = shards;
  options.protocol.n = replicas;
  options.protocol.f = (replicas - 1) / 3;
  options.protocol.batch_max = arg_u64(argc, argv, "--batch-max", 200);
  options.protocol.batch_timeout_us = 10'000;
  options.protocol.checkpoint_interval = 50;
  options.protocol.watermark_window = 400;
  options.protocol.pipeline_depth =
      arg_u64(argc, argv, "--pipeline-depth", 8);
  options.protocol.request_timeout_us = 2'000'000;
  return options;
}

}  // namespace deploy
