#pragma once

#include <cstddef>
#include <cstdint>

namespace prete::util {

// FNV-1a, 64-bit: the one hash behind every signature and decision digest.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Folds `size` bytes at `data` into `hash`.
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// Folds the eight bytes of `v`, least significant first, into `hash`
// (the byte order is fixed, whatever the host's endianness).
inline std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (v >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace prete::util
