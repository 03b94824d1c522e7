// Bounded per-client reply-cache maintenance, shared by the PBFT replica
// and the SplitBFT Execution compartment (both keep a ClientRecord-shaped
// at-most-once table with `last_ts`, `last_result`, `has_reply`).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace sbft::pbft {

/// Strips cached reply BODIES down to `cap` retained replies, oldest
/// timestamps first (ties by client id — a total order, so every replica
/// prunes the identical set at the same execution point and checkpoint
/// digests stay aligned). Records themselves are never erased: the
/// (client, last_ts) at-most-once floor survives stripping, so an old
/// timestamp can never re-execute — which would both break exactly-once
/// semantics and, in SplitBFT, re-seal a different result under an
/// already-used reply AEAD nonce. A stale retransmit of a stripped reply
/// simply goes unanswered; the client's retry machinery owns recovery.
/// `cap` = 0 disables stripping.
template <typename RecordMap>
void strip_reply_cache(RecordMap& records, std::size_t cap) {
  // No more records than the cap means no more cached replies than the cap:
  // skip the walk (this runs after every executed batch).
  if (cap == 0 || records.size() <= cap) return;
  std::vector<std::pair<Timestamp, ClientId>> cached;
  cached.reserve(records.size());
  for (const auto& [client, record] : records) {
    if (record.has_reply) cached.emplace_back(record.last_ts, client);
  }
  if (cached.size() <= cap) return;
  std::sort(cached.begin(), cached.end());
  const std::size_t excess = cached.size() - cap;
  for (std::size_t i = 0; i < excess; ++i) {
    auto& record = records.at(cached[i].second);
    record.has_reply = false;
    record.last_result.clear();
    record.last_result.shrink_to_fit();
  }
}

}  // namespace sbft::pbft
