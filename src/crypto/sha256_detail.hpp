// SHA-256 internals: the two compression functions behind crypto::Sha256.
//
// Not part of the crypto API. Sha256 picks the compression function once,
// by CPUID; this header exists so tests can run both on the same input and
// the microbenchmark can report which one is in use.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sbft::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Compress = void (*)(Sha256State& state, const std::uint8_t* data,
                                std::size_t blocks) noexcept;

/// The portable FIPS 180-4 compression function (the reference).
void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// The x86 SHA-extensions compression function, or nullptr when this build
/// has no hardware path or CPUID does not report the SHA extensions.
[[nodiscard]] Sha256Compress sha256_compress_hw() noexcept;

/// "sha-ni" or "portable": the compression function Sha256 uses here.
[[nodiscard]] const char* sha256_impl_name() noexcept;

}  // namespace sbft::crypto::detail
