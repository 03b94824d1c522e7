// Minimal bounds-checked binary serialization.
//
// All protocol messages are encoded with this codec: little-endian fixed
// width integers, length-prefixed byte strings, no implicit padding.
// Readers never trust their input: every accessor checks remaining length
// and flips a sticky error flag instead of reading out of bounds.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace sbft {

class Writer {
 public:
  /// Room for a short message (most protocol messages fit), so small
  /// encoders allocate once.
  Writer() { buf_.reserve(kShortMessage); }
  /// Exactly `capacity` bytes up front, for encoders that know their size.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }
  /// Writes into `reuse`'s storage from the start: its capacity is kept,
  /// so a caller that hands its last take() back allocates only to grow.
  explicit Writer(Bytes&& reuse) noexcept : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void bytes(ByteView data);
  /// Raw bytes, no length prefix (caller knows the width, e.g. digests).
  void raw(ByteView data);
  void str(const std::string& s);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Appends `n` zero bytes and returns where they start, for a caller
  /// that fills them in place (a ciphertext sealed straight into the
  /// message, say). Valid until the next write.
  [[nodiscard]] std::uint8_t* extend(std::size_t n);

  /// Pre-sizes the buffer for `n` more bytes of writes. Hot paths that know
  /// their encoded size (envelope serialization, signing input) call this
  /// once instead of growing the vector byte by byte.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  static constexpr std::size_t kShortMessage = 128;

  /// Appends the `N` low bytes of `v`, little-endian, in one insert.
  template <std::size_t N>
  void little_endian(std::uint64_t v);

  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] Bytes bytes();
  /// Reads exactly `n` raw bytes (no length prefix).
  [[nodiscard]] Bytes raw(std::size_t n);
  [[nodiscard]] std::string str();
  [[nodiscard]] bool boolean() { return u8() != 0; }

  /// Advances past `n` bytes without materializing them (zero-copy parsers
  /// that slice the underlying frame instead of copying out).
  void skip(std::size_t n) noexcept;
  /// Reads `n` raw bytes as a view into the input (no copy; valid only as
  /// long as the input buffer). Empty view + failed() on underrun.
  [[nodiscard]] ByteView view(std::size_t n) noexcept;
  /// Current read offset from the start of the input.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// True if any read ran past the end of input.
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// True if the input was fully consumed without errors.
  [[nodiscard]] bool done() const noexcept {
    return !failed_ && pos_ == data_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return failed_ ? 0 : data_.size() - pos_;
  }

 private:
  [[nodiscard]] bool need(std::size_t n) noexcept;

  ByteView data_;
  std::size_t pos_{0};
  bool failed_{false};
};

}  // namespace sbft
