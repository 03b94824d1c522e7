// Microbenchmarks for the from-scratch crypto substrate (google-benchmark).
//
// These are the primitive costs behind the CostProfile; on the paper's
// hardware the ring/SGX equivalents are faster. The virtual-time model does
// not use these measurements: its CostProfile constants are hand-set to the
// paper's Azure DC4s_v2 numbers and are not calibrated on this machine.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"
#include "crypto/sha512.hpp"
#include "crypto/x25519.hpp"

namespace {

using namespace sbft;
using namespace sbft::crypto;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha512(benchmark::State& state) {
  Rng rng(2);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha512(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_AeadSealFixed(benchmark::State& state) {
  Rng rng(4);
  Key32 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes plaintext = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Nonce12 nonce = make_nonce(1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_seal(key, nonce, {}, plaintext));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSealFixed)->Arg(16)->Arg(256)->Arg(4096);

void BM_AeadOpen(benchmark::State& state) {
  Rng rng(5);
  Key32 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes plaintext = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Nonce12 nonce = make_nonce(1, 1);
  const Bytes sealed = aead_seal(key, nonce, {}, plaintext);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_open(key, nonce, {}, sealed));
  }
}
BENCHMARK(BM_AeadOpen)->Arg(16)->Arg(256)->Arg(4096);

void BM_Ed25519Sign(benchmark::State& state) {
  Rng rng(6);
  const auto key = Ed25519SecretKey::generate(rng);
  const Bytes msg = rng.bytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Rng rng(7);
  const auto key = Ed25519SecretKey::generate(rng);
  const Bytes msg = rng.bytes(128);
  const auto sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(key.public_key(), msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_X25519(benchmark::State& state) {
  Rng rng(8);
  const Key32 secret = x25519_keygen(rng);
  const Key32 peer = x25519_base(x25519_keygen(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x25519(secret, peer));
  }
}
BENCHMARK(BM_X25519);

}  // namespace

int main(int argc, char** argv) {
  // Which SHA-256 compression function CPUID selected ("sha-ni" or
  // "portable"), so the JSON output says what the Sha256 rows measured.
  benchmark::AddCustomContext("sha256_impl",
                              sbft::crypto::detail::sha256_impl_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
