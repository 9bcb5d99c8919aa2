#ifndef PROMPTEM_CORE_HASHING_H_
#define PROMPTEM_CORE_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace promptem::core {

/// FNV-1a 64-bit over a byte range. The same polynomial the checkpoint
/// trailer and the run-telemetry config hash use; hoisted here so cache
/// keys, dataset fingerprints, and persisted-cache trailers all agree on
/// one implementation. Pass the previous return value as `seed` to chain
/// ranges.
inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ull;

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = kFnv1aOffset);
uint64_t Fnv1a64(const std::string& s, uint64_t seed = kFnv1aOffset);

/// SplitMix64 finalizer: diffuses a 64-bit value so composite keys built
/// from small integers (side, index, generation counters) spread across
/// cache shards and probe sequences.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Order-sensitive combine of two 64-bit values: Combine64(a, b) !=
/// Combine64(b, a). `a` is fully mixed before `b` is folded in, so
/// structured keys (small identities, indexes, version counters) that
/// differ in both arguments do not cancel out: a collision needs
/// Mix64(a1) ^ Mix64(a2) == b1 ^ b2, which is as unlikely as for random
/// keys. For a fixed `a`, distinct `b` never collide (Mix64 is a bijection).
inline uint64_t Combine64(uint64_t a, uint64_t b) {
  return Mix64(Mix64(a) ^ b);
}

}  // namespace promptem::core

#endif  // PROMPTEM_CORE_HASHING_H_
