// HMAC-SHA256 (RFC 2104) and a small HKDF-style key derivation helper.
//
// Used for client request/reply authentication (the paper uses HMAC-SHA2 for
// clients and signatures between replicas) and for deriving session keys.
//
// Every HMAC runs from an HmacKey: the SHA-256 midstates after the key's
// ipad and opad blocks (RFC 2104 section 4). A key used for many messages
// (a client's authentication key) is expanded once and cached, so each MAC
// costs only the compressions of its message plus one outer block.
#pragma once

#include <array>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace sbft::crypto {

using Key32 = std::array<std::uint8_t, 32>;

/// A key expanded for HMAC-SHA256: the hash states after absorbing the
/// key block XOR ipad and the key block XOR opad.
struct HmacKey {
  Sha256::State inner{};
  Sha256::State outer{};

  friend bool operator==(const HmacKey&, const HmacKey&) = default;
};

/// Expands `key` (any length; longer than a block is hashed first).
[[nodiscard]] HmacKey hmac_key(ByteView key) noexcept;

/// HMAC over the concatenation `a || b`, from an expanded key.
[[nodiscard]] Digest hmac_sha256(const HmacKey& key, ByteView a,
                                 ByteView b = {}) noexcept;

/// One-off HMAC: expands `key` for this message only.
[[nodiscard]] Digest hmac_sha256(ByteView key, ByteView data) noexcept;

/// Verifies a MAC over `data` in constant time.
[[nodiscard]] bool hmac_verify(const HmacKey& key, ByteView data,
                               ByteView mac) noexcept;

/// Derives a 32-byte subkey: HMAC(key, label || context). This is
/// HKDF-Expand with a single block, sufficient for 32-byte outputs.
[[nodiscard]] Key32 derive_key(ByteView key, std::string_view label,
                               ByteView context = {}) noexcept;

}  // namespace sbft::crypto
