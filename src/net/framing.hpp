// Wire framing for the TCP transport: length-prefixed envelope frames,
// a zero-copy stream decoder, and the scatter-gather send queue.
//
// On the wire a message is
//
//   [0] frame length u32 (little-endian, length of the envelope wire image)
//   [4] Envelope::wire() bytes (see net/message.cpp for the inner layout)
//
// Both directions are allocation-disciplined:
//
//  * Ingest (FrameDecoder): socket reads land in a per-connection staging
//    buffer allocated once, at chunk size, and never zero-filled. The
//    moment it holds at least one complete frame, exactly those frames'
//    bytes are copied into one immutable SharedBytes and every complete
//    frame is emitted as a slice of it — Envelope::from_frame() then
//    aliases that slice, so a sealed buffer holds only its own frames and
//    a retained slice pins nothing else. The partial tail moves to the
//    front of the staging buffer. A frame longer than the chunk is read
//    into a buffer sized to the whole frame and sealed without a copy.
//  * Egress (SendQueue): envelopes are queued WITHOUT building their wire
//    image. Each one is flushed as four writev segments — a 20-byte scratch
//    head (length prefix | src | dst), the shared signing-input frame
//    (type | payload length | payload), a 4-byte signature length, and the
//    signature frame — so a broadcast's N queue entries all alias the ONE
//    signing-input allocation; per-recipient byte copies are zero and
//    there is no coalescing copy before the syscall. Partial writes resume
//    mid-segment via a byte cursor; a connection teardown rewinds the
//    partially-written front envelope to its frame boundary.
//
// The decoder and queue are plain single-threaded state machines so the
// robustness tests can drive them byte by byte without sockets; the
// TcpTransport event loop owns the synchronization.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/frame.hpp"
#include "net/message.hpp"

struct iovec;  // <sys/uio.h>; forward-declared to keep this header light

namespace sbft::net {

/// Length-prefix width, bytes.
inline constexpr std::size_t kFramePrefixBytes = 4;

/// Envelope wire-header width (src u64 + dst u64) preceding the signing
/// input; mirrors the layout in net/message.cpp.
inline constexpr std::size_t kEnvelopeHeaderBytes = 16;

/// Default plausibility bound on one frame: a length prefix above this is a
/// protocol error and resets the connection BEFORE any buffer is sized from
/// the untrusted value (same discipline as the serde plausibility bounds).
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

/// Encodes the length prefix for a frame of `n` bytes.
[[nodiscard]] std::array<std::uint8_t, kFramePrefixBytes> frame_prefix(
    std::size_t n) noexcept;

/// Serialized frame length of one envelope (prefix excluded).
[[nodiscard]] std::size_t envelope_frame_bytes(const Envelope& env);

/// Streaming frame decoder; one per connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
                        std::size_t read_chunk_bytes = 64u << 10);

  /// Writable region for the next socket read: the staging buffer's free
  /// space or, for a frame longer than the chunk, the rest of that frame.
  /// Sized from a length prefix only after its plausibility check.
  struct WriteArea {
    std::uint8_t* data;
    std::size_t size;
  };
  [[nodiscard]] WriteArea prepare();

  /// Consumes `n` bytes just read into prepare()'s area. Complete frames
  /// are appended to `out` as slices of one sealed buffer holding exactly
  /// those frames. Returns false on a protocol error (implausible length
  /// prefix) — the connection must be reset; the decoder is poisoned until
  /// reset().
  [[nodiscard]] bool commit(std::size_t n, std::vector<SharedBytes>& out);

  /// Bytes of a partial frame (prefix or body) awaiting more input.
  [[nodiscard]] std::size_t buffered() const noexcept { return filled_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  void reset();

 private:
  /// Length of the frame starting at staging offset `pos`, or SIZE_MAX if
  /// the prefix is still incomplete. Sets failed_ on an implausible length.
  [[nodiscard]] std::size_t frame_length_at(std::size_t pos) noexcept;

  std::size_t max_frame_bytes_;
  std::size_t chunk_bytes_;
  std::unique_ptr<std::uint8_t[]> staging_;  // chunk_bytes_, on first use
  Bytes large_;  // the frame longer than the chunk being read, if any
  std::size_t filled_{0};  // bytes held in large_ if non-empty, else staging_
  bool failed_{false};
};

/// Bounded per-peer egress queue with a partial-write cursor.
///
/// push() beyond the byte budget drops the NEWEST envelope (the queue's
/// contents are older and already promised); the caller counts the drop.
class SendQueue {
 public:
  explicit SendQueue(std::size_t max_bytes);

  /// Queues one envelope. Returns false (and queues nothing) if the
  /// queue's byte budget would be exceeded — drop-newest backpressure.
  [[nodiscard]] bool push(Envelope env);

  /// Fills up to `max_iov` iovecs with queued bytes starting at the write
  /// cursor (the first entry may begin mid-frame after a partial write).
  /// Returns the number of iovecs filled; 0 iff empty.
  [[nodiscard]] std::size_t fill_iovecs(struct iovec* iov,
                                        std::size_t max_iov) const;

  /// Advances the cursor by `n` written bytes; returns the number of
  /// envelopes fully retired by this advance (the frames-per-syscall
  /// numerator).
  std::size_t advance(std::size_t n);

  /// Rewinds the cursor to the front envelope's frame boundary: called
  /// when the connection breaks mid-frame, so the replacement connection
  /// retransmits the whole frame instead of resuming an orphaned tail.
  void rewind_front() noexcept;

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t queued_frames() const noexcept {
    return items_.size();
  }
  /// Un-written bytes across the queue (budget accounting).
  [[nodiscard]] std::size_t queued_bytes() const noexcept { return bytes_; }
  /// Drops everything (connection torn down for good).
  void clear();

 private:
  struct Item {
    /// First wire bytes, built at push time: length prefix | src | dst.
    std::array<std::uint8_t, kFramePrefixBytes + kEnvelopeHeaderBytes> head;
    std::array<std::uint8_t, 4> sig_len;
    Envelope env;      // keeps the frames the views below alias alive
    ByteView signing;  // (type | payload length | payload) — shared across
                       // every queue this message sits in
    ByteView sig;
    std::size_t total;  // head + signing + sig_len + sig
  };

  /// The item's four wire segments in transmission order.
  [[nodiscard]] static std::array<std::pair<const std::uint8_t*, std::size_t>,
                                  4>
  segments(const Item& item) noexcept;

  std::deque<Item> items_;
  std::size_t cursor_{0};  // bytes of items_.front() already written
  std::size_t bytes_{0};   // un-written bytes across the queue
  std::size_t max_bytes_;
};

}  // namespace sbft::net
