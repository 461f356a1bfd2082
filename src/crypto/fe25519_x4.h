// Compatibility names for the election-lifecycle benchmark (lifebench/), kept
// from the removed 4-way field layer. Only lifebench calls them; each is the
// plain scalar operation, and nothing under src/ may use them.
#ifndef SRC_CRYPTO_FE25519_X4_H_
#define SRC_CRYPTO_FE25519_X4_H_

#include <cstdint>

#include "src/crypto/fe25519.h"
#include "src/crypto/ristretto.h"

namespace votegral {

enum class FeSimdBackend : uint8_t { kScalar = 0 };

inline const char* FeSimdBackendName(FeSimdBackend) { return "scalar"; }
inline FeSimdBackend ActiveFeSimdBackend() { return FeSimdBackend::kScalar; }

inline void FeInvSqrtX4(const Fe25519 v[4], SqrtRatioResult out[4]) {
  for (int k = 0; k < 4; ++k) out[k] = FeInvSqrt(v[k]);
}

// out may alias a or b: each sum is formed before it is stored.
inline void RistrettoPoint::AddX4(const RistrettoPoint* a, const RistrettoPoint* b,
                                  RistrettoPoint* out) {
  for (int k = 0; k < 4; ++k) out[k] = a[k] + b[k];
}

}  // namespace votegral

#endif  // SRC_CRYPTO_FE25519_X4_H_
