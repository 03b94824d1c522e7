#include "crypto/keyring.hpp"

#include <mutex>
#include <stdexcept>

namespace sbft::crypto {

namespace {

/// HMAC over `id || message` (id little-endian), without copying message.
[[nodiscard]] Digest id_prefixed_mac(const HmacKey& key, PrincipalId id,
                                     ByteView message) noexcept {
  std::array<std::uint8_t, 8> prefix;
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
  return hmac_sha256(key, ByteView{prefix.data(), prefix.size()}, message);
}

class Ed25519SignerImpl final : public Signer {
 public:
  Ed25519SignerImpl(PrincipalId id, Ed25519SecretKey key)
      : id_(id), key_(std::move(key)) {}

  [[nodiscard]] Bytes sign(ByteView message) const override {
    const Ed25519Signature sig = key_.sign(message);
    return Bytes(sig.bytes.begin(), sig.bytes.end());
  }
  [[nodiscard]] PrincipalId id() const noexcept override { return id_; }

 private:
  PrincipalId id_;
  Ed25519SecretKey key_;
};

class Ed25519VerifierImpl final : public Verifier {
 public:
  explicit Ed25519VerifierImpl(
      std::unordered_map<PrincipalId, Ed25519PublicKey> keys)
      : keys_(std::move(keys)) {}

  [[nodiscard]] bool verify(PrincipalId signer, ByteView message,
                            ByteView sig) const override {
    const auto it = keys_.find(signer);
    if (it == keys_.end() || sig.size() != 64) return false;
    Ed25519Signature s;
    std::copy(sig.begin(), sig.end(), s.bytes.begin());
    return ed25519_verify(it->second, message, s);
  }
  [[nodiscard]] bool knows(PrincipalId signer) const override {
    return keys_.contains(signer);
  }

 private:
  std::unordered_map<PrincipalId, Ed25519PublicKey> keys_;
};

class HmacSignerImpl final : public Signer {
 public:
  HmacSignerImpl(PrincipalId id, const Key32& group_key)
      : id_(id),
        group_key_(hmac_key(ByteView{group_key.data(), group_key.size()})) {}

  [[nodiscard]] Bytes sign(ByteView message) const override {
    const Digest mac = id_prefixed_mac(group_key_, id_, message);
    return Bytes(mac.bytes.begin(), mac.bytes.end());
  }
  [[nodiscard]] PrincipalId id() const noexcept override { return id_; }

 private:
  PrincipalId id_;
  HmacKey group_key_;
};

class HmacVerifierImpl final : public Verifier {
 public:
  HmacVerifierImpl(const Key32& group_key,
                   std::unordered_map<PrincipalId, bool> known)
      : group_key_(hmac_key(ByteView{group_key.data(), group_key.size()})),
        known_(std::move(known)) {}

  [[nodiscard]] bool verify(PrincipalId signer, ByteView message,
                            ByteView sig) const override {
    if (!known_.contains(signer)) return false;
    const Digest mac = id_prefixed_mac(group_key_, signer, message);
    return ct_equal(mac.view(), sig);
  }
  [[nodiscard]] bool knows(PrincipalId signer) const override {
    return known_.contains(signer);
  }

 private:
  HmacKey group_key_;
  std::unordered_map<PrincipalId, bool> known_;
};

}  // namespace

struct KeyRing::Impl {
  Rng rng;
  Key32 group_key{};
  std::unordered_map<PrincipalId, std::shared_ptr<const Signer>> signers;
  std::unordered_map<PrincipalId, Ed25519PublicKey> public_keys;
  mutable std::mutex mutex;
  mutable std::shared_ptr<const Verifier> cached_verifier;

  explicit Impl(std::uint64_t seed) : rng(seed) {}
};

KeyRing::KeyRing(Scheme scheme, std::uint64_t seed)
    : scheme_(scheme), impl_(std::make_unique<Impl>(seed)) {
  if (scheme_ == Scheme::HmacShared) {
    for (auto& b : impl_->group_key) {
      b = static_cast<std::uint8_t>(impl_->rng.next_u64());
    }
  }
}

KeyRing::~KeyRing() = default;

void KeyRing::add_principal(PrincipalId id) {
  const std::scoped_lock lock(impl_->mutex);
  if (impl_->signers.contains(id)) {
    throw std::invalid_argument("principal already registered");
  }
  if (scheme_ == Scheme::Ed25519) {
    Ed25519SecretKey key = Ed25519SecretKey::generate(impl_->rng);
    impl_->public_keys.emplace(id, key.public_key());
    impl_->signers.emplace(
        id, std::make_shared<Ed25519SignerImpl>(id, std::move(key)));
  } else {
    impl_->signers.emplace(
        id, std::make_shared<HmacSignerImpl>(id, impl_->group_key));
  }
  impl_->cached_verifier.reset();
}

std::shared_ptr<const Signer> KeyRing::signer(PrincipalId id) const {
  const std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->signers.find(id);
  if (it == impl_->signers.end()) {
    throw std::out_of_range("unknown principal");
  }
  return it->second;
}

std::shared_ptr<const Verifier> KeyRing::verifier() const {
  const std::scoped_lock lock(impl_->mutex);
  if (!impl_->cached_verifier) {
    if (scheme_ == Scheme::Ed25519) {
      impl_->cached_verifier =
          std::make_shared<Ed25519VerifierImpl>(impl_->public_keys);
    } else {
      std::unordered_map<PrincipalId, bool> known;
      for (const auto& [id, signer] : impl_->signers) known.emplace(id, true);
      impl_->cached_verifier = std::make_shared<HmacVerifierImpl>(
          impl_->group_key, std::move(known));
    }
  }
  return impl_->cached_verifier;
}

}  // namespace sbft::crypto
