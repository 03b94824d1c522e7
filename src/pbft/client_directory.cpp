#include "pbft/client_directory.hpp"

namespace sbft::pbft {

ClientDirectory::ClientDirectory(std::uint64_t master_secret)
    : master_secret_(master_secret),
      shards_(std::make_shared<std::array<Shard, kShards>>()) {}

ClientDirectory::Keys ClientDirectory::derive(ClientId client) const {
  Bytes context;
  for (int i = 0; i < 4; ++i) {
    context.push_back(static_cast<std::uint8_t>(client >> (8 * i)));
  }
  Bytes master(8);
  for (int i = 0; i < 8; ++i) {
    master[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(master_secret_ >> (8 * i));
  }
  const crypto::Key32 key = crypto::derive_key(master, "client-auth", context);
  return {key, crypto::hmac_key(ByteView{key.data(), key.size()})};
}

ClientDirectory::Keys ClientDirectory::keys(ClientId client) const {
  Shard& shard = shard_for(client);
  {
    const std::scoped_lock lock(shard.mutex);
    const auto it = shard.keys.find(client);
    if (it != shard.keys.end()) return it->second;
  }
  // Derive outside the lock: HMAC work never blocks other lookups that
  // hash to the same shard. A racing deriver computes the same keys.
  const Keys derived = derive(client);
  const std::scoped_lock lock(shard.mutex);
  shard.keys.emplace(client, derived);
  return derived;
}

crypto::Key32 ClientDirectory::auth_key(ClientId client) const {
  return keys(client).key;
}

crypto::HmacKey ClientDirectory::hmac_key(ClientId client) const {
  return keys(client).mac;
}

std::size_t ClientDirectory::cached_keys() const {
  std::size_t total = 0;
  for (const Shard& shard : *shards_) {
    const std::scoped_lock lock(shard.mutex);
    total += shard.keys.size();
  }
  return total;
}

}  // namespace sbft::pbft
