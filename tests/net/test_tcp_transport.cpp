// TCP transport tests: exhaustive framing robustness (truncation at every
// byte, oversized-length plausibility, partial-write resumption, rewind),
// then real-socket exchange, peer-crash mid-frame, garbage preambles,
// reconnect with backoff, and UDS.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "net/framing.hpp"
#include "net/tcp_transport.hpp"

namespace sbft::net {
namespace {

[[nodiscard]] Envelope make_envelope(principal::Id src, principal::Id dst,
                                     std::string_view payload,
                                     std::string_view sig = "sig") {
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.type = 7;
  env.payload = to_bytes(payload);
  if (!sig.empty()) env.signature = to_bytes(sig);
  return env;
}

/// prefix + wire bytes — the exact stream the SendQueue must produce.
[[nodiscard]] Bytes framed(const Envelope& env) {
  const SharedBytes wire = env.wire();
  const auto prefix = frame_prefix(wire.size());
  Bytes out(prefix.begin(), prefix.end());
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

/// Feeds `data` into the decoder in one commit.
[[nodiscard]] bool feed(FrameDecoder& decoder, ByteView data,
                        std::vector<SharedBytes>& out) {
  std::size_t at = 0;
  while (at < data.size()) {
    const auto area = decoder.prepare();
    const std::size_t n = std::min(area.size, data.size() - at);
    std::memcpy(area.data, data.data() + at, n);
    if (!decoder.commit(n, out)) return false;
    at += n;
  }
  return true;
}

// ------------------------------------------------------------ FrameDecoder

TEST(FrameDecoder, SingleFrameRoundTrip) {
  const Envelope env = make_envelope(1, 2, "hello transport");
  FrameDecoder decoder;
  std::vector<SharedBytes> frames;
  ASSERT_TRUE(feed(decoder, framed(env), frames));
  ASSERT_EQ(frames.size(), 1u);
  const auto decoded = Envelope::from_frame(frames[0]);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, env);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, TruncationAtEveryByteYieldsNoFrameUntilComplete) {
  const Envelope env = make_envelope(3, 4, "truncate me carefully");
  const Bytes stream = framed(env);
  // Deliver byte-by-byte: after EVERY strict prefix — cutting inside the
  // length prefix and at every body byte — no frame may be emitted, and
  // the final byte must complete exactly one.
  FrameDecoder decoder;
  std::vector<SharedBytes> frames;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto area = decoder.prepare();
    ASSERT_GE(area.size, 1u);
    area.data[0] = stream[i];
    ASSERT_TRUE(decoder.commit(1, frames)) << "byte " << i;
    if (i + 1 < stream.size()) {
      EXPECT_TRUE(frames.empty()) << "frame emitted at byte " << i;
    }
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(*Envelope::from_frame(frames[0]), env);
}

TEST(FrameDecoder, EveryChunkSplitOfTwoFrames) {
  const Envelope a = make_envelope(1, 2, "first frame");
  const Envelope b = make_envelope(3, 4, "the second frame, rather longer");
  Bytes stream = framed(a);
  const Bytes second = framed(b);
  stream.insert(stream.end(), second.begin(), second.end());

  // Split the two-frame stream at every possible boundary; both frames
  // must come out intact regardless of where the reads land.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    std::vector<SharedBytes> frames;
    ASSERT_TRUE(feed(decoder, ByteView{stream.data(), split}, frames));
    ASSERT_TRUE(feed(
        decoder, ByteView{stream.data() + split, stream.size() - split},
        frames));
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(*Envelope::from_frame(frames[0]), a);
    EXPECT_EQ(*Envelope::from_frame(frames[1]), b);
  }
}

TEST(FrameDecoder, FramesInOneCommitSliceOneSealedBuffer) {
  const Envelope a = make_envelope(1, 2, "zero");
  const Envelope b = make_envelope(3, 4, "copy");
  Bytes stream = framed(a);
  const Bytes second = framed(b);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<SharedBytes> frames;
  ASSERT_TRUE(feed(decoder, stream, frames));
  ASSERT_EQ(frames.size(), 2u);
  // Both frames alias the one sealed read buffer — no per-frame copies:
  // they sit back to back in it, one length prefix apart.
  EXPECT_EQ(frames[0].data() + frames[0].size() + kFramePrefixBytes,
            frames[1].data());
  // And the sealed buffer is co-owned (2 slices), not duplicated.
  EXPECT_EQ(frames[0].use_count(), 2);
}

TEST(FrameDecoder, OversizedLengthRejectedBeforeAnyAllocation) {
  // A hostile 4 GiB length prefix must poison the decoder at the
  // plausibility bound WITHOUT sizing any buffer from the untrusted value.
  FrameDecoder decoder(/*max_frame_bytes=*/1 << 20,
                       /*read_chunk_bytes=*/512);
  const auto prefix = frame_prefix(0xfffffff0u);
  std::vector<SharedBytes> frames;
  auto area = decoder.prepare();
  ASSERT_GE(area.size, prefix.size());
  std::memcpy(area.data, prefix.data(), prefix.size());
  EXPECT_FALSE(decoder.commit(prefix.size(), frames));
  EXPECT_TRUE(decoder.failed());
  EXPECT_TRUE(frames.empty());
  // The staging buffer was never grown toward the hostile length: the next
  // prepare() still offers chunk-sized capacity, not 4 GiB.
  EXPECT_LT(decoder.prepare().size, (1u << 20));

  decoder.reset();
  EXPECT_FALSE(decoder.failed());
  ASSERT_TRUE(feed(decoder, framed(make_envelope(1, 2, "ok")), frames));
  EXPECT_EQ(frames.size(), 1u);
}

TEST(FrameDecoder, LengthJustAboveBoundRejectedJustBelowAccepted) {
  const Envelope env = make_envelope(1, 2, "bounded");
  const Bytes stream = framed(env);
  const std::size_t frame_len = stream.size() - kFramePrefixBytes;

  FrameDecoder reject(frame_len - 1);
  std::vector<SharedBytes> frames;
  EXPECT_FALSE(feed(reject, stream, frames));
  EXPECT_TRUE(frames.empty());

  FrameDecoder accept(frame_len);
  ASSERT_TRUE(feed(accept, stream, frames));
  EXPECT_EQ(frames.size(), 1u);
}

TEST(FrameDecoder, SealedBufferHoldsOnlyCompleteFrames) {
  // Three small frames and the first half of a fourth arrive in one read.
  // The commit allocates ONE buffer of exactly the three frames' bytes,
  // length prefixes included: not a read chunk, and not the partial tail.
  const Bytes a = framed(make_envelope(1, 2, "alpha"));
  const Bytes b = framed(make_envelope(3, 4, "bravo, a little longer"));
  const Bytes c = framed(make_envelope(5, 6, "charlie"));
  const Bytes d = framed(make_envelope(7, 8, "delta arrives in two reads"));
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  stream.insert(stream.end(), c.begin(), c.end());
  const std::size_t complete_bytes = stream.size();
  const std::size_t half = d.size() / 2;
  stream.insert(stream.end(), d.begin(),
                d.begin() + static_cast<std::ptrdiff_t>(half));

  FrameDecoder decoder(kDefaultMaxFrameBytes, /*read_chunk_bytes=*/256u << 10);
  std::vector<SharedBytes> frames;
  auto area = decoder.prepare();
  ASSERT_GE(area.size, stream.size());
  std::memcpy(area.data, stream.data(), stream.size());
  const FrameAllocStats before = SharedBytes::alloc_stats();
  ASSERT_TRUE(decoder.commit(stream.size(), frames));
  const FrameAllocStats after = SharedBytes::alloc_stats();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(after.allocations - before.allocations, 1u);
  EXPECT_EQ(after.bytes - before.bytes, complete_bytes);
  EXPECT_EQ(decoder.buffered(), half);

  // The rest of the fourth frame: again one buffer of exactly its bytes.
  area = decoder.prepare();
  ASSERT_GE(area.size, d.size() - half);
  std::memcpy(area.data, d.data() + half, d.size() - half);
  const FrameAllocStats before_d = SharedBytes::alloc_stats();
  ASSERT_TRUE(decoder.commit(d.size() - half, frames));
  const FrameAllocStats after_d = SharedBytes::alloc_stats();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(after_d.allocations - before_d.allocations, 1u);
  EXPECT_EQ(after_d.bytes - before_d.bytes, d.size());
  EXPECT_EQ(frames[3].to_bytes(),
            Bytes(d.begin() + kFramePrefixBytes, d.end()));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, FrameLongerThanChunkArrivesWhole) {
  // A frame above the chunk size is read into one buffer sized to the
  // frame: after the first chunk, prepare() offers exactly the rest of it,
  // and the commit that completes it seals that buffer without a copy.
  constexpr std::size_t kChunk = 512;
  const Envelope big = make_envelope(1, 2, std::string(5000, 'x'));
  const Envelope next = make_envelope(3, 4, "small frame after it");
  const Bytes big_stream = framed(big);
  const Bytes next_stream = framed(next);

  FrameDecoder decoder(kDefaultMaxFrameBytes, kChunk);
  std::vector<SharedBytes> frames;
  auto area = decoder.prepare();
  ASSERT_EQ(area.size, kChunk);
  std::memcpy(area.data, big_stream.data(), kChunk);
  ASSERT_TRUE(decoder.commit(kChunk, frames));
  EXPECT_TRUE(frames.empty());

  area = decoder.prepare();
  ASSERT_EQ(area.size, big_stream.size() - kChunk);
  std::memcpy(area.data, big_stream.data() + kChunk, area.size);
  const FrameAllocStats before = SharedBytes::alloc_stats();
  ASSERT_TRUE(decoder.commit(area.size, frames));
  const FrameAllocStats after = SharedBytes::alloc_stats();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(*Envelope::from_frame(frames[0]), big);
  EXPECT_EQ(after.allocations - before.allocations, 1u);
  EXPECT_EQ(after.bytes - before.bytes, big_stream.size());

  // Back to the staging buffer for the frames that follow.
  frames.clear();
  ASSERT_TRUE(feed(decoder, next_stream, frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(*Envelope::from_frame(frames[0]), next);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, EveryChunkSplitAroundAFrameLongerThanChunk) {
  // small | large (above the chunk) | small, split at every byte boundary:
  // the switch to and from the frame-sized buffer must lose no byte.
  constexpr std::size_t kChunk = 512;
  const Envelope a = make_envelope(1, 2, "before");
  const Envelope big = make_envelope(3, 4, std::string(700, 'y'));
  const Envelope c = make_envelope(5, 6, "after");
  Bytes stream = framed(a);
  for (const Envelope* env : {&big, &c}) {
    const Bytes more = framed(*env);
    stream.insert(stream.end(), more.begin(), more.end());
  }
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder(kDefaultMaxFrameBytes, kChunk);
    std::vector<SharedBytes> frames;
    ASSERT_TRUE(feed(decoder, ByteView{stream.data(), split}, frames));
    ASSERT_TRUE(feed(
        decoder, ByteView{stream.data() + split, stream.size() - split},
        frames));
    ASSERT_EQ(frames.size(), 3u) << "split at " << split;
    EXPECT_EQ(*Envelope::from_frame(frames[0]), a);
    EXPECT_EQ(*Envelope::from_frame(frames[1]), big);
    EXPECT_EQ(*Envelope::from_frame(frames[2]), c);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

// --------------------------------------------------------------- SendQueue

/// Drains the queue `step` bytes per "write" and returns the byte stream.
[[nodiscard]] Bytes drain(SendQueue& queue, std::size_t step,
                          std::uint64_t* retired_total = nullptr) {
  Bytes out;
  while (!queue.empty()) {
    iovec iov[16];
    const std::size_t count = queue.fill_iovecs(iov, 16);
    if (count == 0) break;
    std::size_t take = step;
    for (std::size_t i = 0; i < count && take > 0; ++i) {
      const std::size_t n = std::min(take, iov[i].iov_len);
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      out.insert(out.end(), p, p + n);
      take -= n;
    }
    const std::uint64_t retired = queue.advance(step - take);
    if (retired_total) *retired_total += retired;
  }
  return out;
}

TEST(SendQueue, ProducesExactlyPrefixPlusWire) {
  const Envelope a = make_envelope(10, 20, "queued one");
  const Envelope b = make_envelope(30, 40, "queued two", /*sig=*/"");
  SendQueue queue(1 << 20);
  ASSERT_TRUE(queue.push(a));
  ASSERT_TRUE(queue.push(b));
  EXPECT_EQ(queue.queued_frames(), 2u);

  Bytes expected = framed(a);
  const Bytes fb = framed(b);
  expected.insert(expected.end(), fb.begin(), fb.end());
  EXPECT_EQ(queue.queued_bytes(), expected.size());
  EXPECT_EQ(drain(queue, expected.size()), expected);
}

TEST(SendQueue, PartialWriteResumptionByteAtATime) {
  const Envelope a = make_envelope(1, 2, "partial writes");
  const Envelope b = make_envelope(3, 4, "must resume mid-segment");
  Bytes expected = framed(a);
  const Bytes fb = framed(b);
  expected.insert(expected.end(), fb.begin(), fb.end());

  // One byte per writev: every resumption point inside every segment is
  // exercised; retired counts must sum to the number of envelopes.
  SendQueue queue(1 << 20);
  ASSERT_TRUE(queue.push(a));
  ASSERT_TRUE(queue.push(b));
  std::uint64_t retired = 0;
  EXPECT_EQ(drain(queue, 1, &retired), expected);
  EXPECT_EQ(retired, 2u);
  EXPECT_EQ(queue.queued_bytes(), 0u);
}

TEST(SendQueue, DropNewestWhenFull) {
  const Envelope env = make_envelope(1, 2, "payload that takes some room");
  SendQueue queue(2 * framed(env).size());
  EXPECT_TRUE(queue.push(env));
  EXPECT_TRUE(queue.push(env));
  // Third exceeds the byte budget: dropped, queue state untouched.
  EXPECT_FALSE(queue.push(env));
  EXPECT_EQ(queue.queued_frames(), 2u);
  EXPECT_EQ(drain(queue, 4096).size(), 2 * framed(env).size());
}

TEST(SendQueue, RewindFrontRestartsAtFrameBoundary) {
  const Envelope a = make_envelope(1, 2, "interrupted");
  const Envelope b = make_envelope(3, 4, "survivor");
  SendQueue queue(1 << 20);
  ASSERT_TRUE(queue.push(a));
  ASSERT_TRUE(queue.push(b));

  // Simulate a connection dying 7 bytes into frame a.
  iovec iov[16];
  ASSERT_GT(queue.fill_iovecs(iov, 16), 0u);
  EXPECT_EQ(queue.advance(7), 0u);
  queue.rewind_front();

  // The replacement connection gets both frames from their boundaries.
  Bytes expected = framed(a);
  const Bytes fb = framed(b);
  expected.insert(expected.end(), fb.begin(), fb.end());
  EXPECT_EQ(queue.queued_bytes(), expected.size());
  EXPECT_EQ(drain(queue, 4096), expected);
}

TEST(SendQueue, BroadcastQueuesShareTheSigningAllocation) {
  // One envelope fanned out to two peers: both queues' signing segment
  // must point at the SAME bytes (the memoized signing-input frame) —
  // the "no per-recipient copy" property the writev path depends on.
  // As in the real pipeline, the memo exists BEFORE the fan-out copies
  // (sign_envelope builds it when the message is signed).
  Envelope to_a = make_envelope(1, 100, "broadcast body");
  (void)to_a.signing_input_view();
  Envelope to_b = to_a;
  to_b.dst = 200;

  SendQueue qa(1 << 20);
  SendQueue qb(1 << 20);
  ASSERT_TRUE(qa.push(to_a));
  ASSERT_TRUE(qb.push(to_b));

  iovec ia[8];
  iovec ib[8];
  ASSERT_EQ(qa.fill_iovecs(ia, 8), 4u);
  ASSERT_EQ(qb.fill_iovecs(ib, 8), 4u);
  // Segment 0 (prefix|src|dst) differs per peer; segment 1 (the signing
  // input: type|len|payload) is the shared allocation.
  EXPECT_NE(ia[0].iov_base, ib[0].iov_base);
  EXPECT_EQ(ia[1].iov_base, ib[1].iov_base);
  EXPECT_EQ(ia[1].iov_len, ib[1].iov_len);
}

// ------------------------------------------------------------ real sockets

class Receiver {
 public:
  void on(Envelope env) {
    const std::scoped_lock lock(mutex_);
    received_.push_back(std::move(env));
    cv_.notify_all();
  }

  [[nodiscard]] bool wait_for(std::size_t n, int timeout_ms = 5000) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return received_.size() >= n; });
  }

  [[nodiscard]] std::vector<Envelope> snapshot() {
    const std::scoped_lock lock(mutex_);
    return received_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Envelope> received_;
};

/// Two-node topology: principal id 1 lives on node 0, id 2 on node 1.
[[nodiscard]] TcpTransport::RouteFn two_node_route() {
  return [](principal::Id id) -> TcpTransport::NodeId {
    return id == 1 ? 0 : 1;
  };
}

TEST(TcpTransport, TwoNodesExchangeEnvelopesBothWays) {
  TcpTransport::Options options;
  options.listen_addr = "127.0.0.1:0";
  TcpTransport node0(0, options, two_node_route());
  TcpTransport node1(1, options, two_node_route());
  ASSERT_TRUE(node0.start());
  ASSERT_TRUE(node1.start());
  node0.add_peer(1, "127.0.0.1:" + std::to_string(node1.listen_port()));
  node1.add_peer(0, "127.0.0.1:" + std::to_string(node0.listen_port()));

  Receiver at0;
  Receiver at1;
  node0.register_endpoint(1, [&](Envelope env) { at0.on(std::move(env)); });
  node1.register_endpoint(2, [&](Envelope env) { at1.on(std::move(env)); });

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    node0.send(make_envelope(1, 2, "ping " + std::to_string(i)));
    node1.send(make_envelope(2, 1, "pong " + std::to_string(i)));
  }
  ASSERT_TRUE(at1.wait_for(kCount));
  ASSERT_TRUE(at0.wait_for(kCount));

  // Ordered per direction (one TCP stream each way).
  const auto received = at1.snapshot();
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)].payload,
              to_bytes("ping " + std::to_string(i)));
  }

  const TransportStats stats = node0.stats();
  EXPECT_EQ(stats.frames_out, static_cast<std::uint64_t>(kCount));
  EXPECT_GT(stats.writev_calls, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.backpressure_drops, 0u);

  node0.shutdown();
  node1.shutdown();
}

TEST(TcpTransport, WritevBatchesManyFramesPerSyscall) {
  // Deterministic scatter-gather check: queue a burst while the peer is
  // unreachable, then bring it up — the backlog must drain with (far)
  // fewer syscalls than envelopes. UDS so the "same address, not yet
  // bound" window can't be stolen by a concurrent test process the way
  // a released ephemeral TCP port can.
  const std::string path =
      "/tmp/sbft_batch_test_" + std::to_string(::getpid()) + ".sock";
  TcpTransport::Options fast_retry;
  fast_retry.reconnect_backoff_min_us = 2'000;
  fast_retry.reconnect_backoff_max_us = 20'000;
  TcpTransport sender(0, fast_retry, two_node_route());
  ASSERT_TRUE(sender.start());
  sender.add_peer(1, "unix:" + path);

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    sender.send(make_envelope(1, 2, "backlog " + std::to_string(i)));
  }

  TcpTransport::Options listen;
  listen.listen_addr = "unix:" + path;
  TcpTransport receiver(1, listen, two_node_route());
  Receiver sink;
  // Register BEFORE start(): the sender's pending retry may connect and
  // deliver the whole backlog the instant the listener binds.
  receiver.register_endpoint(2, [&](Envelope env) { sink.on(std::move(env)); });
  ASSERT_TRUE(receiver.start()) << receiver.last_error();
  ASSERT_TRUE(sink.wait_for(kCount));

  const TransportStats stats = sender.stats();
  EXPECT_EQ(stats.frames_out, static_cast<std::uint64_t>(kCount));
  EXPECT_GE(stats.frames_per_writev(), 2.0);

  sender.shutdown();
  receiver.shutdown();
}

TEST(TcpTransport, SelfRoutedEnvelopesLoopBackWithoutSockets) {
  TcpTransport::Options options;  // egress-only: no listen socket at all
  TcpTransport node(0, options, [](principal::Id) {
    return TcpTransport::NodeId{0};
  });
  ASSERT_TRUE(node.start());
  Receiver local;
  node.register_endpoint(1, [&](Envelope env) { local.on(std::move(env)); });
  node.send(make_envelope(2, 1, "to myself"));
  ASSERT_TRUE(local.wait_for(1));
  node.shutdown();
}

TEST(TcpTransport, HandlerEchoWindowCompletes) {
  // Ping-pong from the delivery handlers with a window of messages in
  // flight: node 1 echoes every ping, node 0 answers every echo with the
  // next ping. Handler sends run on the loop thread and must not write the
  // eventfd; only sends from other threads (the first window, a burst
  // fired while both loops are busy) may. A lost wake would strand
  // messages and miss the deadline.
  constexpr std::uint64_t kWindow = 1000;
  constexpr std::uint64_t kBurst = 1000;
  constexpr std::uint64_t kRoundTrips = 200'000;
  TcpTransport::Options options;
  options.listen_addr = "127.0.0.1:0";
  TcpTransport node0(0, options, two_node_route());
  TcpTransport node1(1, options, two_node_route());

  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> completed{0};
  std::mutex mu;
  std::condition_variable cv;
  node1.register_endpoint(2, [&](Envelope env) {
    env.src = 2;
    env.dst = 1;
    node1.send(std::move(env));
  });
  node0.register_endpoint(1, [&](Envelope env) {
    if (issued.fetch_add(1, std::memory_order_relaxed) < kRoundTrips) {
      env.src = 1;
      env.dst = 2;
      node0.send(std::move(env));
    }
    if (completed.fetch_add(1, std::memory_order_relaxed) + 1 ==
        kRoundTrips) {
      const std::scoped_lock lock(mu);
      cv.notify_all();
    }
  });
  ASSERT_TRUE(node0.start()) << node0.last_error();
  ASSERT_TRUE(node1.start()) << node1.last_error();
  node0.add_peer(1, "127.0.0.1:" + std::to_string(node1.listen_port()));
  node1.add_peer(0, "127.0.0.1:" + std::to_string(node0.listen_port()));

  const auto ping = [&] {
    issued.fetch_add(1, std::memory_order_relaxed);
    node0.send(make_envelope(1, 2, "ping"));
  };
  for (std::uint64_t i = 0; i < kWindow; ++i) ping();
  std::thread burst([&] {
    while (completed.load(std::memory_order_relaxed) < 20'000) {
      std::this_thread::yield();
    }
    for (std::uint64_t i = 0; i < kBurst; ++i) ping();
  });
  {
    std::unique_lock lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(120), [&] {
      return completed.load(std::memory_order_relaxed) >= kRoundTrips;
    })) << completed.load() << " of " << kRoundTrips << " round trips";
  }
  burst.join();

  // Stop both loops first: a loop counts its written frames only after
  // the peer may already have acted on them. shutdown() wakes once.
  node0.shutdown();
  node1.shutdown();
  const TransportStats s0 = node0.stats();
  const TransportStats s1 = node1.stats();
  EXPECT_EQ(s0.wakes, kWindow + kBurst + 1);
  EXPECT_EQ(s1.wakes, 1u);
  EXPECT_EQ(s0.frames_out, kRoundTrips);
  EXPECT_EQ(s1.frames_out, kRoundTrips);
  EXPECT_GT(s1.reads, 0u);
  EXPECT_LE(s1.reads, s1.frames_in + 1);  // + the dialer's preamble read
}

TEST(TcpTransport, HandlerSelfRoutedSendIsDelivered) {
  // A handler sends to a principal on its own node. The envelope sits in
  // the local queue, which the loop swaps out once per iteration, so this
  // send must wake the loop even though it runs on the loop thread.
  TcpTransport node(0, {}, [](principal::Id) {
    return TcpTransport::NodeId{0};
  });
  Receiver local;
  node.register_endpoint(1, [&](Envelope env) {
    env.src = 1;
    env.dst = 3;
    node.send(std::move(env));
  });
  node.register_endpoint(3, [&](Envelope env) { local.on(std::move(env)); });
  ASSERT_TRUE(node.start());
  node.send(make_envelope(2, 1, "relay me"));
  ASSERT_TRUE(local.wait_for(1));
  EXPECT_EQ(local.snapshot()[0].payload, to_bytes("relay me"));
  node.shutdown();
}

TEST(TcpTransport, PeerCrashMidFrameIsContainedAndCounted) {
  TcpTransport::Options options;
  options.listen_addr = "127.0.0.1:0";
  TcpTransport node(1, options, two_node_route());
  ASSERT_TRUE(node.start());
  Receiver sink;
  node.register_endpoint(2, [&](Envelope env) { sink.on(std::move(env)); });

  // Raw dialer: valid preamble, then half an envelope frame, then crash.
  const Envelope env = make_envelope(1, 2, "about to be cut off");
  const Bytes stream = framed(env);
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(node.listen_port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    Bytes hello = to_bytes("SBFT-TCP");
    hello.resize(16, 0);
    hello[8] = 0;  // node id 0
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
              static_cast<ssize_t>(hello.size()));
    ASSERT_EQ(::send(fd, stream.data(), stream.size() / 2, 0),
              static_cast<ssize_t>(stream.size() / 2));
    ::close(fd);  // crash mid-frame
  }

  // The half frame must never surface. A healthy transport still can.
  EXPECT_FALSE(sink.wait_for(1, 300));
  TcpTransport dialer(0, {}, two_node_route());
  ASSERT_TRUE(dialer.start());
  dialer.add_peer(1, "127.0.0.1:" + std::to_string(node.listen_port()));
  dialer.send(env);
  ASSERT_TRUE(sink.wait_for(1));
  dialer.shutdown();
  node.shutdown();
}

TEST(TcpTransport, GarbagePreambleAndOversizedFrameAreRejected) {
  TcpTransport::Options options;
  options.listen_addr = "127.0.0.1:0";
  options.max_frame_bytes = 1 << 16;
  TcpTransport node(1, options, two_node_route());
  ASSERT_TRUE(node.start());
  Receiver sink;
  node.register_endpoint(2, [&](Envelope env) { sink.on(std::move(env)); });

  const auto raw_dial = [&](const Bytes& bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(node.listen_port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // Give the loop a moment, then observe the counter.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(fd);
  };

  raw_dial(to_bytes("NOT-SBFT........"));  // 16 bytes, wrong magic

  Bytes oversized = to_bytes("SBFT-TCP");
  oversized.resize(16, 0);
  const auto prefix = frame_prefix(0xff000000u);  // 4 GB frame "length"
  oversized.insert(oversized.end(), prefix.begin(), prefix.end());
  raw_dial(oversized);

  EXPECT_FALSE(sink.wait_for(1, 200));
  EXPECT_GE(node.stats().decode_errors, 2u);
  node.shutdown();
}

TEST(TcpTransport, ReconnectsWithBackoffAfterPeerRestart) {
  // UDS address: unique per process, so the outage window can't be
  // hijacked by a concurrent test grabbing a released ephemeral port.
  // The reconnect machinery is address-family agnostic.
  const std::string path =
      "/tmp/sbft_reconnect_test_" + std::to_string(::getpid()) + ".sock";
  TcpTransport::Options fast_retry;
  fast_retry.reconnect_backoff_min_us = 5'000;
  fast_retry.reconnect_backoff_max_us = 50'000;
  TcpTransport sender(0, fast_retry, two_node_route());
  ASSERT_TRUE(sender.start());

  TcpTransport::Options listen;
  listen.listen_addr = "unix:" + path;
  {
    TcpTransport receiver(1, listen, two_node_route());
    ASSERT_TRUE(receiver.start());
    Receiver sink;
    receiver.register_endpoint(2,
                               [&](Envelope env) { sink.on(std::move(env)); });
    sender.add_peer(1, "unix:" + path);
    sender.send(make_envelope(1, 2, "before restart"));
    ASSERT_TRUE(sink.wait_for(1));
    receiver.shutdown();  // peer dies
  }

  // Sends into the void: the connection breaks, retries back off.
  for (int i = 0; i < 5; ++i) {
    sender.send(make_envelope(1, 2, "during outage " + std::to_string(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Peer restarts on the SAME address; the sender must re-establish and
  // deliver fresh traffic without intervention.
  TcpTransport revived(1, listen, two_node_route());
  Receiver sink;
  revived.register_endpoint(2, [&](Envelope env) { sink.on(std::move(env)); });
  ASSERT_TRUE(revived.start()) << revived.last_error();

  bool delivered = false;
  for (int i = 0; i < 100 && !delivered; ++i) {
    sender.send(make_envelope(1, 2, "after restart"));
    delivered = sink.wait_for(1, 100);
  }
  EXPECT_TRUE(delivered);
  EXPECT_GE(sender.stats().reconnects, 1u);

  sender.shutdown();
  revived.shutdown();
}

TEST(TcpTransport, UnixDomainSocketsCarryTraffic) {
  const std::string path =
      "/tmp/sbft_uds_test_" + std::to_string(::getpid()) + ".sock";
  TcpTransport::Options options;
  options.listen_addr = "unix:" + path;
  TcpTransport receiver(1, options, two_node_route());
  ASSERT_TRUE(receiver.start()) << receiver.last_error();
  Receiver sink;
  receiver.register_endpoint(2, [&](Envelope env) { sink.on(std::move(env)); });

  TcpTransport sender(0, {}, two_node_route());
  ASSERT_TRUE(sender.start());
  sender.add_peer(1, "unix:" + path);
  for (int i = 0; i < 50; ++i) {
    sender.send(make_envelope(1, 2, "uds " + std::to_string(i)));
  }
  ASSERT_TRUE(sink.wait_for(50));

  sender.shutdown();
  receiver.shutdown();
  // Listener unlinked its socket file on shutdown.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(TcpTransport, BackpressureDropsNewestAndCounts) {
  // No listener for the peer: the queue only fills. Tiny budget => drops.
  TcpTransport::Options options;
  options.send_queue_max_bytes = 256;
  TcpTransport sender(0, options, two_node_route());
  ASSERT_TRUE(sender.start());
  sender.add_peer(1, "127.0.0.1:1");  // nothing listens there

  for (int i = 0; i < 64; ++i) {
    sender.send(make_envelope(1, 2, "fills the tiny queue quickly"));
  }
  EXPECT_GT(sender.stats().backpressure_drops, 0u);

  // Unrouted principals are dropped and counted, not crashed on.
  TcpTransport lonely(0, {}, [](principal::Id) {
    return TcpTransport::NodeId{9};
  });
  ASSERT_TRUE(lonely.start());
  lonely.send(make_envelope(1, 2, "no such peer"));
  EXPECT_EQ(lonely.stats().unrouted_drops, 1u);

  sender.shutdown();
  lonely.shutdown();
}

TEST(TcpTransport, MalformedPortsAreRejectedNotMisparsed) {
  // atoi-style parsing would silently bind port 0 ("http") or wrap mod
  // 65536 (70000); both must instead fail start() with a parse error.
  for (const char* bad : {"127.0.0.1:http", "127.0.0.1:", "127.0.0.1:-1",
                          "127.0.0.1:65536", "127.0.0.1:70000",
                          "127.0.0.1:123456"}) {
    TcpTransport::Options options;
    options.listen_addr = bad;
    TcpTransport t(0, options, two_node_route());
    EXPECT_FALSE(t.start()) << bad;
    EXPECT_FALSE(t.last_error().empty()) << bad;
  }
  // Port 0 stays legal: it means "ephemeral", resolved via listen_port().
  TcpTransport::Options options;
  options.listen_addr = "127.0.0.1:0";
  TcpTransport ok(0, options, two_node_route());
  ASSERT_TRUE(ok.start()) << ok.last_error();
  EXPECT_GT(ok.listen_port(), 0);
  ok.shutdown();
}

TEST(TcpTransport, ConcurrentAddPeerWhileLoopBusyIsSafe) {
  // add_peer is documented callable after start(): hammer re-declarations
  // and fresh inserts (forcing unordered_map rehashes) from a second
  // thread while the event loop flushes traffic. Run under TSan this
  // pins the loop's locked snapshot of peers_.
  TcpTransport::Options options;
  options.listen_addr = "127.0.0.1:0";
  TcpTransport receiver(1, options, two_node_route());
  ASSERT_TRUE(receiver.start()) << receiver.last_error();
  Receiver sink;
  receiver.register_endpoint(2,
                             [&](Envelope env) { sink.on(std::move(env)); });

  TcpTransport sender(0, options, two_node_route());
  ASSERT_TRUE(sender.start()) << sender.last_error();
  const std::string addr =
      "127.0.0.1:" + std::to_string(receiver.listen_port());
  sender.add_peer(1, addr);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    TcpTransport::NodeId next = 100;
    while (!stop.load(std::memory_order_relaxed)) {
      sender.add_peer(1, addr);                // re-declaration path
      sender.add_peer(next++, "127.0.0.1:1");  // insert/rehash path
    }
  });

  constexpr std::size_t kCount = 300;
  for (std::size_t i = 0; i < kCount; ++i) {
    sender.send(make_envelope(1, 2, "churn " + std::to_string(i)));
  }
  EXPECT_TRUE(sink.wait_for(kCount));
  stop.store(true);
  churn.join();
  sender.shutdown();
  receiver.shutdown();
}

TEST(TcpTransport, ShutdownRacingActiveSendersIsSafe) {
  // send() is documented thread-safe and shutdown() tears the queues
  // down; the two must serialize (late sends are silently dropped).
  TcpTransport::Options options;
  options.send_queue_max_bytes = 4096;
  TcpTransport sender(0, options, two_node_route());
  ASSERT_TRUE(sender.start()) << sender.last_error();
  sender.add_peer(1, "127.0.0.1:1");  // nothing listens there

  std::thread pusher([&] {
    for (int i = 0; i < 2000; ++i) {
      sender.send(make_envelope(1, 2, "racing the teardown"));
    }
  });
  sender.shutdown();  // races the pushes; must not corrupt the queue
  pusher.join();
  sender.shutdown();  // idempotent
}

}  // namespace
}  // namespace sbft::net
