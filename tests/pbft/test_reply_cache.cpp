#include "pbft/reply_cache.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/bytes.hpp"

namespace sbft::pbft {
namespace {

struct Record {
  Timestamp last_ts{0};
  Bytes last_result;
  bool has_reply{false};
};

using Records = std::unordered_map<ClientId, Record>;

// Five clients with cached replies; client c last executed at ts 10 - c,
// so client 4 holds the oldest reply and client 0 the newest.
[[nodiscard]] Records five_cached() {
  Records records;
  for (ClientId c = 0; c < 5; ++c) {
    records[c] = Record{10 - c, to_bytes("result"), true};
  }
  return records;
}

[[nodiscard]] std::size_t cached(const Records& records) {
  std::size_t n = 0;
  for (const auto& [client, record] : records) n += record.has_reply ? 1 : 0;
  return n;
}

TEST(ReplyCache, NothingStrippedWhileCapCoversEveryRecord) {
  for (const std::size_t cap : {std::size_t{5}, std::size_t{6},
                                std::size_t{65'536}}) {
    Records records = five_cached();
    strip_reply_cache(records, cap);
    EXPECT_EQ(records.size(), 5u) << "cap " << cap;
    for (const auto& [client, record] : records) {
      EXPECT_TRUE(record.has_reply) << "cap " << cap << " client " << client;
      EXPECT_EQ(record.last_result, to_bytes("result"));
    }
  }
}

TEST(ReplyCache, StripsOldestRepliesBeyondCapAndKeepsRecords) {
  Records records = five_cached();
  strip_reply_cache(records, 3);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_EQ(cached(records), 3u);
  for (const ClientId oldest : {ClientId{3}, ClientId{4}}) {
    EXPECT_FALSE(records.at(oldest).has_reply);
    EXPECT_TRUE(records.at(oldest).last_result.empty());
    EXPECT_EQ(records.at(oldest).last_ts, 10 - oldest);
  }

  // Records without a cached reply do not count against the cap.
  Records mixed = five_cached();
  mixed.at(0).has_reply = false;
  mixed.at(1).has_reply = false;
  strip_reply_cache(mixed, 3);
  EXPECT_EQ(cached(mixed), 3u);

  // cap 0 disables stripping.
  Records unbounded = five_cached();
  strip_reply_cache(unbounded, 0);
  EXPECT_EQ(cached(unbounded), 5u);
}

}  // namespace
}  // namespace sbft::pbft
