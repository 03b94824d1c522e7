// Client authentication keys.
//
// The paper authenticates client requests and replies with HMAC-SHA2.
// Key distribution is out of band (registration); we model it as
// deterministic derivation from a deployment master secret, so replicas,
// enclaves and clients constructed with the same secret agree on per-client
// keys without a key-exchange protocol.
//
// Derivation (two HMAC-SHA256 invocations) sits on the per-message hot
// path — every request authentication and every reply MAC needs the
// client's key — so the directory memoizes each derived key, together
// with its HMAC midstates (crypto::HmacKey), in a sharded table: ClientId
// hashes to one of kShards independently-locked maps, so concurrent
// completions for different clients (the ThreadNetwork runtime delivers
// replica outputs from many consumer threads) never serialize on a single
// lock. Copies of a directory share the cache.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/types.hpp"
#include "crypto/hmac.hpp"

namespace sbft::pbft {

class ClientDirectory {
 public:
  explicit ClientDirectory(std::uint64_t master_secret);

  /// The client's HMAC key: derived on first use, cached thereafter.
  [[nodiscard]] crypto::Key32 auth_key(ClientId client) const;
  /// The same key expanded for HMAC: every client MAC runs from this.
  [[nodiscard]] crypto::HmacKey hmac_key(ClientId client) const;

  /// Cached-key count across all shards (tests / capacity planning).
  [[nodiscard]] std::size_t cached_keys() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Keys {
    crypto::Key32 key;
    crypto::HmacKey mac;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<ClientId, Keys> keys;
  };

  [[nodiscard]] Keys keys(ClientId client) const;
  [[nodiscard]] Keys derive(ClientId client) const;
  [[nodiscard]] Shard& shard_for(ClientId client) const noexcept {
    // Multiplicative hash so consecutive client ids (the common workload
    // allocation pattern) spread across shards instead of striding.
    const std::uint64_t h = client * 0x9e3779b97f4a7c15ULL;
    return (*shards_)[(h >> 32) % kShards];
  }

  std::uint64_t master_secret_;
  // shared_ptr: the directory is passed by value throughout (replicas,
  // compartments, clients); all copies feed one cache.
  std::shared_ptr<std::array<Shard, kShards>> shards_;
};

}  // namespace sbft::pbft
