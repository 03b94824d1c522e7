// Real network transport: nonblocking epoll I/O over TCP or Unix-domain
// sockets, one event-loop thread per transport instance.
//
// Deployment model
// ----------------
// A TcpTransport is one NODE of a cluster: it hosts a set of local
// principals (a PBFT replica; a SplitBFT replica's broker + three enclave
// principals; a load generator's thousands of clients) and a routing
// function mapping any principal id to the node that hosts it. Connections
// are SIMPLEX: a node dials every node it sends to and uses that
// connection for egress only; the remote's own dial-back carries traffic
// the other way. That keeps connection ownership trivial (the sender
// reconnects, the receiver just accepts) at the cost of two sockets per
// node pair.
//
// Data path
// ---------
//  * Egress: send() routes by env.dst, then queues the envelope on the
//    peer's bounded SendQueue — NO serialization, no wire-image build. The
//    event loop flushes queues with writev scatter-gather: up to
//    kMaxSendIovecs iovecs per syscall, each envelope contributed as
//    (length prefix | src | dst)(scratch) + signing frame + (sig length) +
//    signature frame. A broadcast therefore shares ONE signing-input
//    allocation across every peer queue — per-recipient byte copies: zero.
//    Backpressure: a full queue drops the NEWEST envelope (counted); BFT
//    protocols treat the network as lossy, so clients retransmit.
//  * Ingress: edge-triggered reads land in the connection's FrameDecoder
//    staging buffer (allocated once); the complete frames of each read are
//    sealed into one buffer of exactly their bytes and parsed as slices of
//    it with Envelope::from_frame(). Delivery runs on the event-loop
//    thread; handlers may call send() re-entrantly (the loop holds no
//    locks during delivery).
//  * Wakes: a send() from another thread writes the loop's eventfd. A
//    send() made on the loop thread itself (from a handler) does not: the
//    loop flushes every non-empty peer queue right after delivery. Only a
//    self-routed envelope wakes from the loop thread, since the local
//    queue is swapped out once per iteration. TransportStats::wakes and
//    ::reads count eventfd writes and ingress reads.
//  * Reconnect: a broken or refused outbound connection retries with
//    exponential backoff (min..max); the un-flushed queue survives and the
//    partially-written front frame is rewound to its boundary so the fresh
//    connection never starts mid-frame.
//
// Threading: send(), add_peer() and register_endpoint are thread-safe
// (peers_ and the send queues are only ever touched under mu_, including
// by the loop thread and shutdown()); everything socket-shaped happens on
// the loop thread. stats() is readable anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "net/framing.hpp"
#include "net/transport.hpp"

namespace sbft::net {

/// Transport-level counters (RunnerStats-style introspection; the workload
/// JSON report and the cluster harness surface these).
struct TransportStats {
  std::uint64_t bytes_in{0};
  std::uint64_t bytes_out{0};
  std::uint64_t frames_in{0};
  std::uint64_t frames_out{0};
  std::uint64_t writev_calls{0};
  std::uint64_t wakes{0};               // eventfd writes
  std::uint64_t reads{0};               // ingress recv calls that got bytes
  std::uint64_t connects{0};            // successful establishments
  std::uint64_t reconnects{0};          // establishments after a break
  std::uint64_t accepts{0};
  std::uint64_t backpressure_drops{0};  // send-queue full, newest dropped
  std::uint64_t unrouted_drops{0};      // no peer/endpoint for dst
  std::uint64_t decode_errors{0};       // framing/parse failures

  /// State-transfer traffic (envelope types listed in
  /// Options::state_transfer_types): how much of the pipe recovery
  /// consumed, split out so a workload report can show protocol traffic
  /// and recovery traffic side by side. Egress is counted at enqueue.
  std::uint64_t state_frames_in{0};
  std::uint64_t state_frames_out{0};
  std::uint64_t state_bytes_in{0};
  std::uint64_t state_bytes_out{0};

  /// Scatter-gather batching actually engaged? (>= 2 means multiple
  /// envelopes per syscall on average.)
  [[nodiscard]] double frames_per_writev() const noexcept {
    return writev_calls ? static_cast<double>(frames_out) /
                              static_cast<double>(writev_calls)
                        : 0.0;
  }
};

class TcpTransport final : public Transport {
 public:
  using NodeId = std::uint32_t;
  /// Maps a principal to the cluster node hosting it. Must be pure and
  /// thread-safe (called from send() on any thread).
  using RouteFn = std::function<NodeId(principal::Id)>;

  struct Options {
    /// "host:port" (port 0 = ephemeral, see listen_port()) or
    /// "unix:/path" for same-host deployments. Empty = egress-only node.
    std::string listen_addr;
    std::size_t max_frame_bytes{kDefaultMaxFrameBytes};
    /// Per-peer send-queue byte budget (drop-newest beyond it).
    std::size_t send_queue_max_bytes{64u << 20};
    std::size_t read_chunk_bytes{256u << 10};
    Micros reconnect_backoff_min_us{10'000};
    Micros reconnect_backoff_max_us{1'000'000};
    /// Envelope types classified as state-transfer traffic in
    /// TransportStats (the transport itself is protocol-agnostic; the
    /// harness passes the protocol's StateRequest/StateChunk* tags).
    std::vector<std::uint32_t> state_transfer_types;
  };

  TcpTransport(NodeId self, Options options, RouteFn route);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Declares a dialable peer. May be called before or after start();
  /// connections are established lazily on first send toward the node.
  /// Re-declaring a node updates its dial address (picked up by the next
  /// connect attempt — how a restarted node's new home is announced).
  /// Node ids must fit in 24 bits (they share an epoll tag word with the
  /// full 32-bit fd) — cluster indices, not arbitrary principal ids.
  void add_peer(NodeId node, std::string addr);

  /// Binds/listens and spawns the event loop. False on socket/bind errors
  /// (see last_error()).
  [[nodiscard]] bool start();

  /// Stops the loop and closes every socket. Queued envelopes are dropped
  /// (the network is allowed to be unreliable). Idempotent.
  void shutdown();

  /// The actually-bound TCP port (after start(); 0 for UDS/egress-only).
  [[nodiscard]] std::uint16_t listen_port() const noexcept {
    return listen_port_;
  }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }
  [[nodiscard]] NodeId self() const noexcept { return self_; }

  // Transport interface.
  void send(Envelope env) override;
  void register_endpoint(principal::Id id, DeliveryFn handler) override;
  /// One handler serving several principals (workload stations; a SplitBFT
  /// replica's four principals). Same shape as ThreadNetwork's.
  void register_endpoint_group(const std::vector<principal::Id>& ids,
                               DeliveryFn handler);

  [[nodiscard]] TransportStats stats() const;

 private:
  struct Counters {
    std::atomic<std::uint64_t> bytes_in{0}, bytes_out{0};
    std::atomic<std::uint64_t> frames_in{0}, frames_out{0};
    std::atomic<std::uint64_t> writev_calls{0};
    std::atomic<std::uint64_t> wakes{0}, reads{0};
    std::atomic<std::uint64_t> connects{0}, reconnects{0}, accepts{0};
    std::atomic<std::uint64_t> backpressure_drops{0}, unrouted_drops{0};
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> state_frames_in{0}, state_frames_out{0};
    std::atomic<std::uint64_t> state_bytes_in{0}, state_bytes_out{0};
  };

  struct Peer;  // outbound (egress) connection state
  struct Conn;  // inbound (ingress) connection state
  struct Loop;  // event-loop implementation detail (epoll fds etc.)

  void loop_main();
  void deliver(Envelope env);
  void wake();
  [[nodiscard]] bool is_state_type(std::uint32_t type) const noexcept;

  NodeId self_;
  Options options_;
  RouteFn route_;

  mutable std::mutex mu_;  // peers' queues + local delivery queue
  std::unordered_map<NodeId, std::unique_ptr<Peer>> peers_;
  std::deque<Envelope> local_;  // self-routed envelopes awaiting delivery

  std::mutex endpoints_mu_;
  std::unordered_map<principal::Id, std::shared_ptr<DeliveryFn>> endpoints_;

  std::unique_ptr<Loop> loop_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::uint16_t listen_port_{0};
  std::string listen_path_;  // UDS path to unlink on shutdown
  std::string last_error_;
  Counters counters_;
};

}  // namespace sbft::net
