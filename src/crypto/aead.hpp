// ChaCha20-Poly1305 AEAD (RFC 8439).
//
// Encrypts client requests/replies end-to-end to the Execution enclave and
// implements enclave sealing / the protected filesystem.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"  // Key32

namespace sbft::crypto {

using Nonce12 = std::array<std::uint8_t, 12>;
using Tag16 = std::array<std::uint8_t, 16>;

/// Raw ChaCha20 keystream XOR. `counter` is the initial block counter.
void chacha20_xor(const Key32& key, const Nonce12& nonce, std::uint32_t counter,
                  ByteView input, std::uint8_t* output) noexcept;

/// One-shot Poly1305 MAC.
[[nodiscard]] Tag16 poly1305(const Key32& key, ByteView data) noexcept;

/// Bytes an AEAD seal adds to its plaintext (the Poly1305 tag).
inline constexpr std::size_t kAeadTagBytes = 16;

/// Encrypts `plaintext` into `out`, which must hold plaintext.size() +
/// kAeadTagBytes bytes: ciphertext || tag, with no allocation. `out` must
/// not overlap `aad`; it may equal plaintext.data().
void aead_seal_into(const Key32& key, const Nonce12& nonce, ByteView aad,
                    ByteView plaintext, std::uint8_t* out) noexcept;

/// Checks the tag of ciphertext||tag and, only if it holds, decrypts into
/// `out` (sealed.size() - kAeadTagBytes bytes). False on a short input or
/// a failed tag, in which case `out` is untouched.
[[nodiscard]] bool aead_open_into(const Key32& key, const Nonce12& nonce,
                                  ByteView aad, ByteView sealed,
                                  std::uint8_t* out) noexcept;

/// Encrypts `plaintext`; returns ciphertext || 16-byte tag.
[[nodiscard]] Bytes aead_seal(const Key32& key, const Nonce12& nonce,
                              ByteView aad, ByteView plaintext);

/// Decrypts ciphertext||tag; nullopt if authentication fails.
[[nodiscard]] std::optional<Bytes> aead_open(const Key32& key,
                                             const Nonce12& nonce, ByteView aad,
                                             ByteView sealed);

/// Builds a deterministic nonce from a 64-bit sequence (low 8 bytes LE) and a
/// 32-bit channel id (high 4 bytes LE). Each (key, channel, seq) is unique.
[[nodiscard]] Nonce12 make_nonce(std::uint32_t channel,
                                 std::uint64_t seq) noexcept;

}  // namespace sbft::crypto
