#pragma once

#include <cstdint>
#include <span>

#include "src/btds/block_tridiag.hpp"

/// \file fingerprint.hpp
/// Matrix fingerprints — the FactorCache key (docs/SERVICE.md).
///
/// A fingerprint is a 64-bit FNV-1a digest of a domain tag, the shape
/// (N, M) and every stored block's raw bytes, in storage order (lower,
/// diag, upper). Content-based, so two structurally identical systems
/// built through different code paths collide on purpose — that is a
/// cache *hit*, the whole point. Fingerprints are cache keys, not
/// cryptographic hashes: a 64-bit digest over a
/// handful of cached systems makes accidental collision astronomically
/// unlikely, and a collision costs a wrong answer — so the service keys
/// *admission* on fingerprints but callers who need hard guarantees can
/// verify shape via Session state after acquire().

namespace ardbt::service {

/// 64-bit cache key; see file comment for the collision contract.
using Fingerprint = std::uint64_t;

/// Incremental FNV-1a 64-bit hasher (offset basis / prime per the spec).
/// Byte-order sensitive by design — fingerprints are same-machine cache
/// keys, never serialized across hosts.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<std::uint64_t>(b[i]);
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  Fnv1a& f64(std::span<const double> v) { return bytes(v.data(), v.size_bytes()); }

  Fingerprint digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Content fingerprint: shape plus every stored block, in storage order.
/// Cost O(N M^2) — one pass over the matrix bytes.
Fingerprint fingerprint(const btds::BlockTridiag& sys);

}  // namespace ardbt::service
