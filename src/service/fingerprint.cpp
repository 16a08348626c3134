#include "src/service/fingerprint.hpp"

namespace ardbt::service {

namespace {
// Domain tag folded first; kept so every digest stays the same.
constexpr std::uint64_t kContentDomain = 0x61726474'636f6e74ull;  // "ardt" "cont"
}  // namespace

Fingerprint fingerprint(const btds::BlockTridiag& sys) {
  Fnv1a h;
  h.u64(kContentDomain);
  h.u64(static_cast<std::uint64_t>(sys.num_blocks()));
  h.u64(static_cast<std::uint64_t>(sys.block_size()));
  const la::index_t n = sys.num_blocks();
  for (la::index_t i = 1; i < n; ++i) h.f64(sys.lower(i).data());
  for (la::index_t i = 0; i < n; ++i) h.f64(sys.diag(i).data());
  for (la::index_t i = 0; i + 1 < n; ++i) h.f64(sys.upper(i).data());
  return h.digest();
}

}  // namespace ardbt::service
