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
  /// The eight-word chaining value between blocks.
  using State = std::array<std::uint32_t, 8>;

  Sha256() noexcept { reset(); }

  /// Continues a hash whose first `blocks` 64-byte blocks were compressed
  /// into `midstate` (see midstate()).
  [[nodiscard]] static Sha256 resume(const State& midstate,
                                     std::uint64_t blocks) noexcept;

  void reset() noexcept;
  void update(ByteView data) noexcept;
  /// Finishes the hash. The object must be reset() before reuse.
  [[nodiscard]] Digest finalize() noexcept;

  /// The chaining value after the blocks absorbed so far. It resumes the
  /// hash only when a whole number of blocks has been absorbed, as for the
  /// key blocks of HMAC (RFC 2104 section 4).
  [[nodiscard]] const State& midstate() const noexcept { return state_; }

 private:
  /// Runs `count` consecutive 64-byte blocks through the compression
  /// function chosen by CPUID (see sha256_detail.hpp).
  void compress(const std::uint8_t* blocks, std::size_t count) noexcept;

  State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_{0};
  std::uint64_t total_len_{0};
};

/// One-shot SHA-256.
[[nodiscard]] Digest sha256(ByteView data) noexcept;

/// SHA-256 over the concatenation of two buffers (avoids a copy).
[[nodiscard]] Digest sha256_concat(ByteView a, ByteView b) noexcept;

}  // namespace sbft::crypto
