// Warm, single-threaded unit costs of the crypto entry points the tally,
// verifier, kiosk and ballot layers are built from. A stage's time should be
// explained as (operations per item) × (unit cost) plus a residual; these
// are the unit costs. Each figure is the median of several timed batches.
#ifndef LIFEBENCH_SRC_UNIT_COSTS_H_
#define LIFEBENCH_SRC_UNIT_COSTS_H_

#include <cstdint>

namespace lifebench {

struct UnitCosts {
  double mulbase_us = 0.0;             // RistrettoPoint::MulBase
  double mul_us = 0.0;                 // variable-base scalar * point
  double dleq_prove_us = 0.0;          // ProveDleqFs, two-pair statement
  double dleq_verify_us = 0.0;         // VerifyDleqFs, two-pair statement
  double msm4096_us_per_point = 0.0;   // MultiScalarMul over 4096 terms, 1 thread
  double schnorr_sign_us = 0.0;        // SchnorrKeyPair::Sign, 64-byte message
  double sha256_ns_per_block = 0.0;    // Sha256 over 64 KiB
};

UnitCosts MeasureUnitCosts(uint64_t seed);

}  // namespace lifebench

#endif  // LIFEBENCH_SRC_UNIT_COSTS_H_
