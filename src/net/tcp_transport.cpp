#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/clock.hpp"

namespace sbft::net {

namespace {

/// Dialer preamble: 8 magic bytes + the dialing node's id (LE u64). The
/// acceptor reads it before switching the connection to frame decoding.
constexpr std::array<std::uint8_t, 8> kMagic = {'S', 'B', 'F', 'T',
                                               '-', 'T', 'C', 'P'};
constexpr std::size_t kPreambleBytes = 16;

/// writev scatter-gather width: plenty for dozens of envelopes per syscall
/// while staying far under IOV_MAX (1024).
constexpr std::size_t kMaxSendIovecs = 256;

/// The transport whose event loop runs on this thread, if any. A send()
/// made on that thread (from a delivery handler) needs no wake: the loop
/// flushes every non-empty peer queue after delivery, in the same pass.
thread_local const TcpTransport* t_loop_owner = nullptr;

[[nodiscard]] Micros now_us() {
  static const SteadyClock clock;
  return clock.now();
}

void set_nonblocking_nodelay(int fd, bool tcp) {
  // SOCK_NONBLOCK covers sockets we create; accepted fds use accept4.
  if (tcp) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

/// Parsed listen/dial address: TCP host:port or unix:/path.
struct Addr {
  bool uds{false};
  sockaddr_storage ss{};
  socklen_t len{0};
  std::string path;  // UDS only

  [[nodiscard]] static bool parse(const std::string& spec, Addr& out,
                                  std::string& error) {
    if (spec.rfind("unix:", 0) == 0) {
      out.uds = true;
      out.path = spec.substr(5);
      auto* sun = reinterpret_cast<sockaddr_un*>(&out.ss);
      sun->sun_family = AF_UNIX;
      if (out.path.size() + 1 > sizeof(sun->sun_path)) {
        error = "unix socket path too long: " + out.path;
        return false;
      }
      std::memcpy(sun->sun_path, out.path.c_str(), out.path.size() + 1);
      out.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                       out.path.size() + 1);
      return true;
    }
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos) {
      error = "address must be host:port or unix:/path: " + spec;
      return false;
    }
    const std::string host = spec.substr(0, colon);
    const std::string port_str = spec.substr(colon + 1);
    // Strict decimal port: a typo'd port must fail loudly, not silently
    // become 0 (atoi) or wrap mod 65536. Port 0 stays legal — it means
    // "ephemeral" for listen addresses (see Options::listen_addr).
    if (port_str.empty() || port_str.size() > 5 ||
        port_str.find_first_not_of("0123456789") != std::string::npos) {
      error = "port must be decimal 0..65535: " + spec;
      return false;
    }
    const unsigned long port = std::strtoul(port_str.c_str(), nullptr, 10);
    if (port > 65535) {
      error = "port out of range [0, 65535]: " + spec;
      return false;
    }
    auto* sin = reinterpret_cast<sockaddr_in*>(&out.ss);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &sin->sin_addr) != 1) {
      error = "cannot parse IPv4 host: " + host;
      return false;
    }
    out.len = sizeof(sockaddr_in);
    return true;
  }
};

/// epoll user-data tags.
enum class FdKind : std::uint64_t { Listen = 1, Wake = 2, PeerOut = 3,
                                    ConnIn = 4 };

/// Tag layout: kind(8) | node id(24) | fd(32). The FULL fd is encoded so
/// conn lookups and the PeerOut stale-fd check never alias even when fd
/// numbers exceed 2^24. Node ids are cluster indices and must fit 24 bits
/// (documented on add_peer).
[[nodiscard]] std::uint64_t tag(FdKind kind, std::uint32_t id, int fd) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(id & 0xffffff) << 32) |
         static_cast<std::uint32_t>(fd);
}

}  // namespace

// An outbound, egress-only connection to one peer node.
struct TcpTransport::Peer {
  explicit Peer(NodeId n, std::string a, std::size_t queue_max)
      : node(n), addr(std::move(a)), queue(queue_max) {}

  NodeId node;
  std::string addr;
  SendQueue queue;  // guarded by TcpTransport::mu_

  // Loop-thread-only connection state.
  enum class State { Disconnected, Connecting, Connected };
  State state{State::Disconnected};
  int fd{-1};
  std::array<std::uint8_t, kPreambleBytes> preamble{};
  std::size_t preamble_sent{kPreambleBytes};  // == size when done
  Micros backoff_us{0};
  Micros retry_at{0};
  bool ever_connected{false};
};

// An inbound, ingress-only connection from some (not yet known) peer.
struct TcpTransport::Conn {
  explicit Conn(int f, std::size_t max_frame, std::size_t chunk)
      : fd(f), decoder(max_frame, chunk) {}

  int fd;
  FrameDecoder decoder;
  std::array<std::uint8_t, kPreambleBytes> hello{};
  std::size_t hello_got{0};
  bool identified{false};
};

struct TcpTransport::Loop {
  int epoll_fd{-1};
  int wake_fd{-1};
  int listen_fd{-1};
  bool listen_uds{false};
  /// Nonzero when accept4 failed with an fd-exhaustion-class error: the
  /// listen fd is edge-triggered, so the pending backlog will not
  /// re-trigger EPOLLIN by itself — retry at this deadline instead.
  Micros accept_retry_at{0};
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
};

TcpTransport::TcpTransport(NodeId self, Options options, RouteFn route)
    : self_(self), options_(std::move(options)), route_(std::move(route)),
      loop_(std::make_unique<Loop>()) {}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::add_peer(NodeId node, std::string addr) {
  const std::scoped_lock lock(mu_);
  auto it = peers_.find(node);
  if (it != peers_.end()) {
    // Re-declaration updates the dial address (used on the next connect
    // attempt) — how a supervisor announces a restarted node's new home.
    it->second->addr = std::move(addr);
    return;
  }
  peers_.emplace(node, std::make_unique<Peer>(node, std::move(addr),
                                              options_.send_queue_max_bytes));
}

bool TcpTransport::start() {
  if (running_.exchange(true)) return true;
  loop_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  loop_->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (loop_->epoll_fd < 0 || loop_->wake_fd < 0) {
    last_error_ = "epoll/eventfd creation failed";
    running_.store(false);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = tag(FdKind::Wake, 0, loop_->wake_fd);
  ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, loop_->wake_fd, &ev);

  if (!options_.listen_addr.empty()) {
    Addr addr;
    if (!Addr::parse(options_.listen_addr, addr, last_error_)) {
      running_.store(false);
      return false;
    }
    loop_->listen_uds = addr.uds;
    if (addr.uds) ::unlink(addr.path.c_str());
    const int fd = ::socket(addr.uds ? AF_UNIX : AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr.ss), addr.len) != 0 ||
        ::listen(fd, 256) != 0) {
      last_error_ = "bind/listen failed on " + options_.listen_addr + ": " +
                    std::strerror(errno);
      ::close(fd);
      running_.store(false);
      return false;
    }
    if (!addr.uds) {
      sockaddr_in bound{};
      socklen_t blen = sizeof(bound);
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
      listen_port_ = ntohs(bound.sin_port);
    } else {
      listen_path_ = addr.path;
    }
    loop_->listen_fd = fd;
    epoll_event lev{};
    lev.events = EPOLLIN | EPOLLET;
    lev.data.u64 = tag(FdKind::Listen, 0, fd);
    ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, fd, &lev);
  }

  thread_ = std::thread([this] { loop_main(); });
  return true;
}

void TcpTransport::shutdown() {
  if (!running_.exchange(false)) return;
  wake();
  if (thread_.joinable()) thread_.join();
  // Loop thread has exited, but send() is documented thread-safe and may
  // still be running: everything it touches (peers_, queues, local_, the
  // wake fd) is torn down under mu_ so a late send races with nothing.
  {
    const std::scoped_lock lock(mu_);
    for (auto& [node, peer] : peers_) {
      if (peer->fd >= 0) ::close(peer->fd);
      peer->fd = -1;
      peer->state = Peer::State::Disconnected;
      peer->queue.clear();
    }
    local_.clear();
    if (loop_->wake_fd >= 0) ::close(loop_->wake_fd);
    loop_->wake_fd = -1;
  }
  for (auto& [fd, conn] : loop_->conns) ::close(fd);
  loop_->conns.clear();
  if (loop_->listen_fd >= 0) ::close(loop_->listen_fd);
  if (loop_->epoll_fd >= 0) ::close(loop_->epoll_fd);
  loop_->listen_fd = loop_->epoll_fd = -1;
  if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
}

void TcpTransport::wake() {
  // mu_ also guards the wake fd's LIFETIME: shutdown() closes and resets
  // it under the same lock, so a concurrent send() can never write into a
  // closed (and possibly kernel-reused) descriptor.
  const std::scoped_lock lock(mu_);
  if (loop_->wake_fd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n =
        ::write(loop_->wake_fd, &one, sizeof(one));
    counters_.wakes.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpTransport::send(Envelope env) {
  const NodeId dst_node = route_(env.dst);
  if (dst_node == self_) {
    // Local loopback: enqueue for the event loop — NEVER deliver inline
    // (the caller may be a handler already holding its engine's lock).
    // Always wake, even from the loop thread: an envelope queued during
    // delivery is only picked up by the loop's next iteration.
    {
      const std::scoped_lock lock(mu_);
      local_.push_back(std::move(env));
    }
    wake();
    return;
  }
  const bool state_frame = is_state_type(env.type);
  // wire() memoizes the frame the queue flush will send, so sizing the
  // state-transfer counter here costs nothing extra.
  const std::uint64_t frame_bytes = state_frame ? env.wire().size() : 0;
  bool dropped_backpressure = false;
  bool dropped_unrouted = false;
  {
    const std::scoped_lock lock(mu_);
    const auto it = peers_.find(dst_node);
    if (it == peers_.end()) {
      dropped_unrouted = true;
    } else if (!it->second->queue.push(std::move(env))) {
      dropped_backpressure = true;
    }
  }
  if (dropped_unrouted) {
    counters_.unrouted_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (dropped_backpressure) {
    counters_.backpressure_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (state_frame) {
    counters_.state_frames_out.fetch_add(1, std::memory_order_relaxed);
    counters_.state_bytes_out.fetch_add(frame_bytes,
                                        std::memory_order_relaxed);
  }
  if (t_loop_owner != this) wake();
}

bool TcpTransport::is_state_type(std::uint32_t type) const noexcept {
  const auto& types = options_.state_transfer_types;
  return std::find(types.begin(), types.end(), type) != types.end();
}

void TcpTransport::register_endpoint(principal::Id id, DeliveryFn handler) {
  const std::scoped_lock lock(endpoints_mu_);
  endpoints_[id] = std::make_shared<DeliveryFn>(std::move(handler));
}

void TcpTransport::register_endpoint_group(
    const std::vector<principal::Id>& ids, DeliveryFn handler) {
  auto shared = std::make_shared<DeliveryFn>(std::move(handler));
  const std::scoped_lock lock(endpoints_mu_);
  for (const principal::Id id : ids) endpoints_[id] = shared;
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  s.bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  s.frames_in = counters_.frames_in.load(std::memory_order_relaxed);
  s.frames_out = counters_.frames_out.load(std::memory_order_relaxed);
  s.writev_calls = counters_.writev_calls.load(std::memory_order_relaxed);
  s.wakes = counters_.wakes.load(std::memory_order_relaxed);
  s.reads = counters_.reads.load(std::memory_order_relaxed);
  s.connects = counters_.connects.load(std::memory_order_relaxed);
  s.reconnects = counters_.reconnects.load(std::memory_order_relaxed);
  s.accepts = counters_.accepts.load(std::memory_order_relaxed);
  s.backpressure_drops =
      counters_.backpressure_drops.load(std::memory_order_relaxed);
  s.unrouted_drops = counters_.unrouted_drops.load(std::memory_order_relaxed);
  s.decode_errors = counters_.decode_errors.load(std::memory_order_relaxed);
  s.state_frames_in =
      counters_.state_frames_in.load(std::memory_order_relaxed);
  s.state_frames_out =
      counters_.state_frames_out.load(std::memory_order_relaxed);
  s.state_bytes_in = counters_.state_bytes_in.load(std::memory_order_relaxed);
  s.state_bytes_out =
      counters_.state_bytes_out.load(std::memory_order_relaxed);
  return s;
}

void TcpTransport::deliver(Envelope env) {
  std::shared_ptr<DeliveryFn> handler;
  {
    const std::scoped_lock lock(endpoints_mu_);
    const auto it = endpoints_.find(env.dst);
    if (it != endpoints_.end()) handler = it->second;
  }
  if (!handler) {
    counters_.unrouted_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  (*handler)(std::move(env));
}

// --------------------------------------------------------- event loop

void TcpTransport::loop_main() {
  using State = Peer::State;
  t_loop_owner = this;
  std::vector<epoll_event> events(128);
  std::vector<SharedBytes> frames;
  std::vector<Envelope> inbound;
  std::deque<Envelope> local;
  std::vector<Peer*> peer_scan;

  const auto fail_peer = [&](Peer& peer, Micros now) {
    if (peer.fd >= 0) {
      ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_DEL, peer.fd, nullptr);
      ::close(peer.fd);
      peer.fd = -1;
    }
    peer.state = State::Disconnected;
    {
      // A partially-written frame must restart at its boundary on the
      // replacement connection (the remote decoder starts fresh).
      const std::scoped_lock lock(mu_);
      peer.queue.rewind_front();
    }
    peer.backoff_us = peer.backoff_us == 0
                          ? options_.reconnect_backoff_min_us
                          : std::min(peer.backoff_us * 2,
                                     options_.reconnect_backoff_max_us);
    peer.retry_at = now + peer.backoff_us;
  };

  const auto on_connected = [&](Peer& peer) {
    peer.state = State::Connected;
    peer.retry_at = 0;
    peer.backoff_us = 0;
    counters_.connects.fetch_add(1, std::memory_order_relaxed);
    if (peer.ever_connected) {
      counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
    }
    peer.ever_connected = true;
    std::memcpy(peer.preamble.data(), kMagic.data(), kMagic.size());
    for (int i = 0; i < 8; ++i) {
      peer.preamble[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(self_) >>
                                    (8 * i));
    }
    peer.preamble_sent = 0;
  };

  // Flushes the peer's preamble then its queue with writev batching until
  // EAGAIN or empty. Returns false if the connection broke.
  const auto flush_peer = [&](Peer& peer) -> bool {
    while (peer.preamble_sent < kPreambleBytes) {
      const ssize_t w =
          ::send(peer.fd, peer.preamble.data() + peer.preamble_sent,
                 kPreambleBytes - peer.preamble_sent, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      peer.preamble_sent += static_cast<std::size_t>(w);
    }
    while (true) {
      iovec iov[kMaxSendIovecs];
      std::size_t count;
      {
        const std::scoped_lock lock(mu_);
        count = peer.queue.fill_iovecs(iov, kMaxSendIovecs);
      }
      if (count == 0) return true;
      // sendmsg == writev for the scatter-gather, but MSG_NOSIGNAL turns
      // a peer-closed pipe into EPIPE instead of a process-wide SIGPIPE.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = count;
      const ssize_t w = ::sendmsg(peer.fd, &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      counters_.writev_calls.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_out.fetch_add(static_cast<std::uint64_t>(w),
                                    std::memory_order_relaxed);
      std::size_t retired;
      {
        const std::scoped_lock lock(mu_);
        retired = peer.queue.advance(static_cast<std::size_t>(w));
      }
      counters_.frames_out.fetch_add(retired, std::memory_order_relaxed);
    }
  };

  const auto connect_peer = [&](Peer& peer, Micros now) {
    std::string peer_addr;
    {
      // add_peer may update the address concurrently (re-declaration).
      const std::scoped_lock lock(mu_);
      peer_addr = peer.addr;
    }
    Addr addr;
    std::string error;
    if (!Addr::parse(peer_addr, addr, error)) {
      // Unresolvable address: back off and retry (the operator may fix it;
      // meanwhile the queue applies backpressure).
      fail_peer(peer, now);
      return;
    }
    const int fd = ::socket(addr.uds ? AF_UNIX : AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      fail_peer(peer, now);
      return;
    }
    set_nonblocking_nodelay(fd, !addr.uds);
    peer.fd = fd;
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr.ss), addr.len);
    if (rc == 0) {
      peer.state = State::Connected;  // placeholder; on_connected finalizes
      on_connected(peer);
    } else if (errno == EINPROGRESS) {
      peer.state = State::Connecting;
    } else {
      fail_peer(peer, now);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = tag(FdKind::PeerOut, peer.node, fd);
    ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    if (peer.state == State::Connected && !flush_peer(peer)) {
      fail_peer(peer, now);
    }
  };

  const auto close_conn = [&](int fd) {
    ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    loop_->conns.erase(fd);
  };

  // Edge-triggered read until EAGAIN; decodes and dispatches. Returns
  // false when the connection is done (EOF/error/protocol violation).
  const auto read_conn = [&](Conn& conn) -> bool {
    while (true) {
      if (!conn.identified) {
        const ssize_t r =
            ::recv(conn.fd, conn.hello.data() + conn.hello_got,
                   kPreambleBytes - conn.hello_got, 0);
        if (r == 0) return false;
        if (r < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
          if (errno == EINTR) continue;
          return false;
        }
        counters_.reads.fetch_add(1, std::memory_order_relaxed);
        conn.hello_got += static_cast<std::size_t>(r);
        if (conn.hello_got < kPreambleBytes) continue;
        if (std::memcmp(conn.hello.data(), kMagic.data(), kMagic.size()) !=
            0) {
          counters_.decode_errors.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        conn.identified = true;
        continue;
      }
      const FrameDecoder::WriteArea area = conn.decoder.prepare();
      const ssize_t r = ::recv(conn.fd, area.data, area.size, 0);
      if (r == 0) return false;
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      counters_.reads.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_in.fetch_add(static_cast<std::uint64_t>(r),
                                   std::memory_order_relaxed);
      frames.clear();
      if (!conn.decoder.commit(static_cast<std::size_t>(r), frames)) {
        counters_.decode_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      for (SharedBytes& frame : frames) {
        auto env = Envelope::from_frame(std::move(frame));
        if (!env) {
          counters_.decode_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
        if (is_state_type(env->type)) {
          counters_.state_frames_in.fetch_add(1, std::memory_order_relaxed);
          counters_.state_bytes_in.fetch_add(env->wire().size(),
                                             std::memory_order_relaxed);
        }
        inbound.push_back(std::move(*env));
      }
    }
  };

  const auto accept_all = [&](Micros now) {
    loop_->accept_retry_at = 0;
    while (true) {
      const int fd = ::accept4(loop_->listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
        if (errno == EINTR || errno == ECONNABORTED) continue;
        // EMFILE/ENFILE-class failure: connections may still be queued in
        // the backlog, and edge-triggered EPOLLIN only fires again on a
        // brand-new dial. Schedule a timed retry so they drain once fds
        // free up instead of stalling indefinitely.
        loop_->accept_retry_at = now + options_.reconnect_backoff_min_us;
        return;
      }
      set_nonblocking_nodelay(fd, !loop_->listen_uds);
      counters_.accepts.fetch_add(1, std::memory_order_relaxed);
      loop_->conns.emplace(
          fd, std::make_unique<Conn>(fd, options_.max_frame_bytes,
                                     options_.read_chunk_bytes));
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET;
      ev.data.u64 = tag(FdKind::ConnIn, 0, fd);
      ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    }
  };

  while (running_.load(std::memory_order_relaxed)) {
    // Timeout: the earliest pending reconnect/accept-retry deadline, else
    // block.
    int timeout_ms = -1;
    {
      const Micros now = now_us();
      const auto consider = [&](Micros at) {
        const Micros wait_us = at > now ? at - now : 0;
        const int ms = static_cast<int>(wait_us / 1000) + 1;
        if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
      };
      const std::scoped_lock lock(mu_);
      for (const auto& [node, peer] : peers_) {
        if (peer->state != State::Disconnected || peer->queue.empty()) {
          continue;
        }
        consider(peer->retry_at);
      }
      if (loop_->accept_retry_at != 0) consider(loop_->accept_retry_at);
    }

    const int n = ::epoll_wait(loop_->epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (!running_.load(std::memory_order_relaxed)) break;
    const Micros now = now_us();

    if (loop_->accept_retry_at != 0 && now >= loop_->accept_retry_at) {
      accept_all(now);  // timed retry after an fd-exhaustion accept failure
    }

    for (int i = 0; i < n; ++i) {
      const std::uint64_t data = events[static_cast<std::size_t>(i)].data.u64;
      const auto kind = static_cast<FdKind>(data >> 56);
      const auto id = static_cast<std::uint32_t>((data >> 32) & 0xffffff);
      const int ev_fd = static_cast<int>(static_cast<std::uint32_t>(data));
      const std::uint32_t evs = events[static_cast<std::size_t>(i)].events;

      switch (kind) {
        case FdKind::Wake: {
          // One read returns and zeroes the whole count (not a semaphore
          // eventfd); the fd is edge-triggered, so a wake that lands after
          // it raises a fresh event.
          std::uint64_t drain;
          [[maybe_unused]] const auto r =
              ::read(loop_->wake_fd, &drain, sizeof(drain));
          break;
        }
        case FdKind::Listen:
          accept_all(now);
          break;
        case FdKind::PeerOut: {
          Peer* peer_ptr = nullptr;
          {
            // add_peer() may insert (and rehash) concurrently; the map is
            // only read under mu_. Peers are never erased, so the Peer*
            // stays valid once the lock is dropped.
            const std::scoped_lock lock(mu_);
            const auto it = peers_.find(id);
            if (it != peers_.end()) peer_ptr = it->second.get();
          }
          if (peer_ptr == nullptr) break;
          Peer& peer = *peer_ptr;
          if (peer.fd != ev_fd) break;  // stale event for a replaced fd
          if (evs & (EPOLLERR | EPOLLHUP)) {
            fail_peer(peer, now);
            break;
          }
          if (peer.state == State::Connecting && (evs & EPOLLOUT)) {
            int err = 0;
            socklen_t elen = sizeof(err);
            ::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
            if (err != 0) {
              fail_peer(peer, now);
              break;
            }
            on_connected(peer);
          }
          if (evs & EPOLLIN) {
            // Egress-only socket: data is unexpected, EOF means the peer
            // closed — probe with a drain read.
            std::uint8_t sink[256];
            const ssize_t r = ::recv(peer.fd, sink, sizeof(sink), 0);
            if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR)) {
              fail_peer(peer, now);
              break;
            }
          }
          if (peer.state == State::Connected && !flush_peer(peer)) {
            fail_peer(peer, now);
          }
          break;
        }
        case FdKind::ConnIn: {
          const auto it = loop_->conns.find(ev_fd);
          if (it == loop_->conns.end()) break;
          if ((evs & (EPOLLERR | EPOLLHUP)) && !(evs & EPOLLIN)) {
            close_conn(ev_fd);
            break;
          }
          if (!read_conn(*it->second)) close_conn(ev_fd);
          break;
        }
      }
    }

    // Deliver ingress + local loopback outside of any lock.
    {
      const std::scoped_lock lock(mu_);
      local.swap(local_);
    }
    for (Envelope& env : local) deliver(std::move(env));
    local.clear();
    for (Envelope& env : inbound) deliver(std::move(env));
    inbound.clear();

    // Progress every peer: dial if due, flush if connected. Peer counts
    // are cluster-sized (n + loadgens), so the scan is trivial. The map is
    // snapshot under mu_ (add_peer may insert and rehash concurrently);
    // peers are never erased, so the Peer*s outlive the lock.
    peer_scan.clear();
    {
      const std::scoped_lock lock(mu_);
      for (auto& [node, peer_ptr] : peers_) {
        if (!peer_ptr->queue.empty()) peer_scan.push_back(peer_ptr.get());
      }
    }
    for (Peer* peer_ptr : peer_scan) {
      Peer& peer = *peer_ptr;
      if (peer.state == State::Disconnected && now >= peer.retry_at) {
        connect_peer(peer, now);
      } else if (peer.state == State::Connected && !flush_peer(peer)) {
        fail_peer(peer, now);
      }
    }
  }
}

}  // namespace sbft::net
