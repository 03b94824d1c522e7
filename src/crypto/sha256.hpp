// SHA-256 (FIPS 180-4). Streaming and one-shot interfaces. Blocks are
// compressed with the x86 SHA extensions when CPUID reports them, and with
// portable code otherwise; the digests are the same either way.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace sbft::crypto {

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteView data) noexcept;
  /// Finishes the hash. The object must be reset() before reuse.
  [[nodiscard]] Digest finalize() noexcept;

 private:
  /// Runs `count` consecutive 64-byte blocks through the compression
  /// function chosen by CPUID (see sha256_detail.hpp).
  void compress(const std::uint8_t* blocks, std::size_t count) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_{0};
  std::uint64_t total_len_{0};
};

/// One-shot SHA-256.
[[nodiscard]] Digest sha256(ByteView data) noexcept;

/// SHA-256 over the concatenation of two buffers (avoids a copy).
[[nodiscard]] Digest sha256_concat(ByteView a, ByteView b) noexcept;

}  // namespace sbft::crypto
