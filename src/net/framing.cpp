#include "net/framing.hpp"

#include <sys/uio.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

namespace sbft::net {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] std::size_t read_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::size_t>(p[0]) | (static_cast<std::size_t>(p[1]) << 8) |
         (static_cast<std::size_t>(p[2]) << 16) |
         (static_cast<std::size_t>(p[3]) << 24);
}

}  // namespace

std::array<std::uint8_t, kFramePrefixBytes> frame_prefix(
    std::size_t n) noexcept {
  std::array<std::uint8_t, kFramePrefixBytes> out{};
  put_u32(out.data(), static_cast<std::uint32_t>(n));
  return out;
}

std::size_t envelope_frame_bytes(const Envelope& env) {
  return kEnvelopeHeaderBytes + env.signing_input_view().size() + 4 +
         env.signature.size();
}

// ---------------------------------------------------------- FrameDecoder

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes,
                           std::size_t read_chunk_bytes)
    : max_frame_bytes_(max_frame_bytes),
      chunk_bytes_(std::max<std::size_t>(read_chunk_bytes, 512)) {}

std::size_t FrameDecoder::frame_length_at(std::size_t pos) noexcept {
  if (filled_ - pos < kFramePrefixBytes) {
    return std::numeric_limits<std::size_t>::max();
  }
  const std::size_t len = read_u32(staging_.get() + pos);
  if (len > max_frame_bytes_) {
    failed_ = true;
    return std::numeric_limits<std::size_t>::max();
  }
  return len;
}

FrameDecoder::WriteArea FrameDecoder::prepare() {
  if (!large_.empty()) {
    return {large_.data() + filled_, large_.size() - filled_};
  }
  if (!staging_) {
    staging_ = std::make_unique_for_overwrite<std::uint8_t[]>(chunk_bytes_);
  }
  // The partial frame always starts at offset 0 (commit() moves it there).
  // If it cannot fit the staging buffer, the rest of it is read into one
  // buffer of exactly the frame's size, which commit() seals without a
  // copy. The length sizes that buffer only after its plausibility check.
  if (!failed_) {
    const std::size_t len = frame_length_at(0);
    if (!failed_ && len != std::numeric_limits<std::size_t>::max() &&
        kFramePrefixBytes + len > chunk_bytes_) {
      large_.resize(kFramePrefixBytes + len);
      std::memcpy(large_.data(), staging_.get(), filled_);
      return {large_.data() + filled_, large_.size() - filled_};
    }
  }
  return {staging_.get() + filled_, chunk_bytes_ - filled_};
}

bool FrameDecoder::commit(std::size_t n, std::vector<SharedBytes>& out) {
  if (failed_) return false;
  filled_ += n;

  if (!large_.empty()) {
    if (filled_ < large_.size()) return true;
    const std::size_t len = large_.size() - kFramePrefixBytes;
    out.push_back(SharedBytes(std::exchange(large_, {}))
                      .slice(kFramePrefixBytes, len));
    filled_ = 0;
    return true;
  }

  // Scan for complete frames first; seal only if there is one.
  std::size_t pos = 0;
  std::size_t complete = 0;
  while (true) {
    const std::size_t len = frame_length_at(pos);
    if (failed_) return false;
    if (len == std::numeric_limits<std::size_t>::max() ||
        filled_ - pos - kFramePrefixBytes < len) {
      break;
    }
    pos += kFramePrefixBytes + len;
    ++complete;
  }
  if (complete == 0) return true;

  // Seal a copy of exactly the complete frames; the partial tail (at most
  // one frame) moves to the front of the staging buffer.
  const SharedBytes buffer = SharedBytes::copy_of({staging_.get(), pos});
  std::memmove(staging_.get(), staging_.get() + pos, filled_ - pos);
  filled_ -= pos;

  std::size_t at = 0;
  for (std::size_t i = 0; i < complete; ++i) {
    const std::size_t len = read_u32(buffer.data() + at);
    out.push_back(buffer.slice(at + kFramePrefixBytes, len));
    at += kFramePrefixBytes + len;
  }
  return true;
}

void FrameDecoder::reset() {
  large_ = {};
  filled_ = 0;
  failed_ = false;
}

// ------------------------------------------------------------- SendQueue

SendQueue::SendQueue(std::size_t max_bytes) : max_bytes_(max_bytes) {}

bool SendQueue::push(Envelope env) {
  // Materialize the views first (signing_input_view() memoizes on first
  // use; for received/relayed envelopes it aliases the original wire
  // image), then compute the frame length from them.
  const ByteView signing = env.signing_input_view();
  const ByteView sig = env.signature.view();
  const std::size_t frame_len =
      kEnvelopeHeaderBytes + signing.size() + 4 + sig.size();
  const std::size_t total = kFramePrefixBytes + frame_len;
  if (bytes_ + total > max_bytes_) return false;

  Item item;
  put_u32(item.head.data(), static_cast<std::uint32_t>(frame_len));
  put_u64(item.head.data() + kFramePrefixBytes, env.src);
  put_u64(item.head.data() + kFramePrefixBytes + 8, env.dst);
  put_u32(item.sig_len.data(), static_cast<std::uint32_t>(sig.size()));
  item.env = std::move(env);
  item.signing = signing;
  item.sig = sig;
  item.total = total;
  items_.push_back(std::move(item));
  bytes_ += total;
  return true;
}

std::array<std::pair<const std::uint8_t*, std::size_t>, 4>
SendQueue::segments(const Item& item) noexcept {
  return {{{item.head.data(), item.head.size()},
           {item.signing.data(), item.signing.size()},
           {item.sig_len.data(), item.sig_len.size()},
           {item.sig.data(), item.sig.size()}}};
}

std::size_t SendQueue::fill_iovecs(struct iovec* iov,
                                   std::size_t max_iov) const {
  std::size_t count = 0;
  std::size_t skip = cursor_;  // only ever inside the FIRST item
  for (const Item& item : items_) {
    for (const auto& [data, len] : segments(item)) {
      if (skip >= len) {
        skip -= len;
        continue;
      }
      if (count >= max_iov) return count;
      iov[count].iov_base = const_cast<std::uint8_t*>(data) + skip;
      iov[count].iov_len = len - skip;
      skip = 0;
      ++count;
    }
  }
  return count;
}

std::size_t SendQueue::advance(std::size_t n) {
  bytes_ -= n;
  cursor_ += n;
  std::size_t retired = 0;
  while (!items_.empty() && cursor_ >= items_.front().total) {
    cursor_ -= items_.front().total;
    items_.pop_front();
    ++retired;
  }
  return retired;
}

void SendQueue::rewind_front() noexcept {
  bytes_ += cursor_;
  cursor_ = 0;
}

void SendQueue::clear() {
  items_.clear();
  cursor_ = 0;
  bytes_ = 0;
}

}  // namespace sbft::net
