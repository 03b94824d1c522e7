#include "common/serde.hpp"

#include <array>
#include <limits>

namespace sbft {

template <std::size_t N>
void Writer::little_endian(std::uint64_t v) {
  std::array<std::uint8_t, N> out;
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf_.insert(buf_.end(), out.begin(), out.end());
}

void Writer::u16(std::uint16_t v) { little_endian<2>(v); }

void Writer::u32(std::uint32_t v) { little_endian<4>(v); }

void Writer::u64(std::uint64_t v) { little_endian<8>(v); }

void Writer::bytes(ByteView data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Writer::raw(ByteView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::uint8_t* Writer::extend(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void Writer::str(const std::string& s) {
  bytes(ByteView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

bool Reader::need(std::size_t n) noexcept {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Bytes Reader::bytes() {
  const std::uint32_t len = u32();
  return raw(len);
}

Bytes Reader::raw(std::size_t n) {
  if (!need(n)) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void Reader::skip(std::size_t n) noexcept {
  if (!need(n)) return;
  pos_ += n;
}

ByteView Reader::view(std::size_t n) noexcept {
  if (!need(n)) return {};
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::str() {
  const Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

}  // namespace sbft
