// PBFT client engine (closed-loop, one outstanding request).
//
// Broadcasts authenticated requests to all replicas, accepts a result once
// f+1 replicas returned matching authenticated replies, and retransmits on
// timeout (which is also what eventually triggers a view change when the
// primary is faulty).
//
// Read fast path (Config::read_path): read-only operations are broadcast
// as ReadRequest and served by every replica against its last-executed
// state in a single round. The client accepts once 2f+1 replies match on
// (result digest, executed sequence number) AND the designated responder's
// full value hashes to that digest. On a mismatch among all n replies or
// on the fallback timeout the identical request bytes are re-broadcast
// through the ordered path. Ordered operations wait for 2f+1 matching
// replies (instead of f+1) while the read path is on, so an acknowledged
// write is always visible to at least one correct voter of any read
// quorum — linearizability survives concurrent writes, view changes and
// byzantine read replies.
//
// Authenticator caveat (inherited from the MAC model): replies carry HMACs
// under the per-CLIENT key that every replica shares (ClientDirectory), so
// reply votes distinguish senders by the claimed sender field, checked
// against the envelope source. As at seed for ordered replies, a transport
// that lets a replica spoof another replica's source identity weakens the
// reply/read quorums to what per-(client, replica) keys would restore.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"
#include "pbft/client_directory.hpp"
#include "pbft/config.hpp"
#include "pbft/messages.hpp"

namespace sbft::pbft {

class Client {
 public:
  /// Maps a replica index to the principal requests are addressed to —
  /// lets the same client engine drive PBFT and the hybrid baseline.
  using ReplicaPrincipalFn = principal::Id (*)(ReplicaId);

  Client(Config config, ClientId id, const ClientDirectory& directory,
         Micros retry_timeout_us = 1'000'000,
         ReplicaPrincipalFn replica_principal = &principal::pbft_replica);

  /// Starts a new operation. Returns the Request envelopes to broadcast.
  /// Must not be called while another operation is in flight. With
  /// `read_only` set (and Config::read_path on) the operation takes the
  /// single-round read fast path first.
  [[nodiscard]] std::vector<net::Envelope> submit(Bytes operation, Micros now,
                                                  bool read_only = false);

  /// Processes a Reply or ReadReply. Returns the result once the in-flight
  /// request completed (exactly once per operation). `out` receives any
  /// envelopes to transmit — the ordered re-broadcast when a fast read
  /// falls back on a reply mismatch.
  [[nodiscard]] std::optional<Bytes> on_reply(const net::Envelope& env,
                                              Micros now,
                                              std::vector<net::Envelope>& out);

  /// Retransmits the in-flight request if the retry timer expired, and
  /// falls the fast read back to the ordered path after its deadline.
  [[nodiscard]] std::vector<net::Envelope> tick(Micros now);

  [[nodiscard]] std::optional<Micros> next_deadline() const;
  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] ClientId id() const noexcept { return id_; }
  [[nodiscard]] Timestamp current_timestamp() const noexcept {
    return timestamp_;
  }
  /// Reads completed via the fast path / reads that fell back to ordering.
  [[nodiscard]] std::uint64_t fast_reads() const noexcept {
    return fast_reads_;
  }
  [[nodiscard]] std::uint64_t read_fallbacks() const noexcept {
    return read_fallbacks_;
  }

 private:
  [[nodiscard]] std::vector<net::Envelope> broadcast_request() const;
  [[nodiscard]] std::optional<Bytes> on_read_reply(
      const net::Envelope& env, Micros now, std::vector<net::Envelope>& out);
  void fall_back(Micros now, std::vector<net::Envelope>& out);
  void finish() noexcept;

  Config config_;
  ClientId id_;
  crypto::HmacKey mac_key_;
  Micros retry_timeout_us_;
  ReplicaPrincipalFn replica_principal_;

  Timestamp timestamp_{0};
  Bytes operation_;
  Request request_;
  bool in_flight_{false};
  Micros retry_deadline_{0};
  // result bytes -> replicas that returned it (ordered path, f+1).
  std::map<Bytes, std::set<ReplicaId>> votes_;

  // --- read fast path ---
  bool fast_read_{false};       // in-flight request is on the fast path
  Micros read_deadline_{0};     // fallback deadline while fast_read_
  using ReadKey = std::pair<Digest, SeqNum>;  // (result digest, exec seq)
  std::map<ReadKey, std::set<ReplicaId>> read_votes_;
  std::map<ReadKey, Bytes> read_results_;  // digest-verified full values
  std::set<ReplicaId> read_replied_;       // distinct responders this read
  std::uint64_t fast_reads_{0};
  std::uint64_t read_fallbacks_{0};
};

}  // namespace sbft::pbft
