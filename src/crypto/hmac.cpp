#include "crypto/hmac.hpp"

#include <cstring>

namespace sbft::crypto {

HmacKey hmac_key(ByteView key) noexcept {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const Digest kd = sha256(key);
    std::memcpy(block.data(), kd.bytes.data(), kd.bytes.size());
  } else if (!key.empty()) {
    // key.data() may be null for an empty view; null memcpy source is UB.
    std::memcpy(block.data(), key.data(), key.size());
  }
  const auto midstate = [&block](std::uint8_t pad) {
    std::array<std::uint8_t, 64> padded;
    for (std::size_t i = 0; i < padded.size(); ++i) {
      padded[i] = static_cast<std::uint8_t>(block[i] ^ pad);
    }
    Sha256 h;
    h.update(ByteView{padded.data(), padded.size()});
    return h.midstate();
  };
  return HmacKey{midstate(0x36), midstate(0x5c)};
}

Digest hmac_sha256(const HmacKey& key, ByteView a, ByteView b) noexcept {
  Sha256 inner = Sha256::resume(key.inner, 1);
  inner.update(a);
  inner.update(b);
  const Digest inner_digest = inner.finalize();
  Sha256 outer = Sha256::resume(key.outer, 1);
  outer.update(inner_digest.view());
  return outer.finalize();
}

Digest hmac_sha256(ByteView key, ByteView data) noexcept {
  return hmac_sha256(hmac_key(key), data);
}

bool hmac_verify(const HmacKey& key, ByteView data, ByteView mac) noexcept {
  return ct_equal(hmac_sha256(key, data).view(), mac);
}

Key32 derive_key(ByteView key, std::string_view label,
                 ByteView context) noexcept {
  const Digest d = hmac_sha256(
      hmac_key(key),
      ByteView{reinterpret_cast<const std::uint8_t*>(label.data()),
               label.size()},
      context);
  Key32 out;
  std::memcpy(out.data(), d.bytes.data(), out.size());
  return out;
}

}  // namespace sbft::crypto
