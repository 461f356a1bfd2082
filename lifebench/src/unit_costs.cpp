#include "lifebench/src/unit_costs.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/common/executor.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/msm.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace lifebench {

namespace {

using votegral::RistrettoPoint;
using votegral::Scalar;

// Median over `trials` of (seconds for one call of body) / ops, in the unit
// given by `scale` (1e6 = µs, 1e9 = ns).
template <typename F>
double MedianPerOp(int trials, double ops, double scale, F&& body) {
  std::vector<double> samples;
  body();  // warm
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count() * scale / ops);
  }
  std::nth_element(samples.begin(), samples.begin() + trials / 2, samples.end());
  return samples[static_cast<size_t>(trials / 2)];
}

// Keeps a result observable so the timed call is not optimized away.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace

UnitCosts MeasureUnitCosts(uint64_t seed) {
  votegral::Executor serial(1);
  votegral::Executor::Scope scope(serial);
  votegral::ChaChaRng rng(seed ^ 0x756E6974636F7374ull);
  UnitCosts out;
  constexpr int kTrials = 7;
  constexpr int kOps = 64;

  std::vector<Scalar> scalars(kOps);
  for (Scalar& s : scalars) {
    s = Scalar::Random(rng);
  }
  const RistrettoPoint point = RistrettoPoint::MulBase(Scalar::Random(rng));
  RistrettoPoint sink;

  out.mulbase_us = MedianPerOp(kTrials, kOps, 1e6, [&] {
    for (const Scalar& s : scalars) {
      sink = sink + RistrettoPoint::MulBase(s);
    }
  });
  out.mul_us = MedianPerOp(kTrials, kOps, 1e6, [&] {
    for (const Scalar& s : scalars) {
      sink = sink + s * point;
    }
  });

  const Scalar x = Scalar::Random(rng);
  const RistrettoPoint g2 = RistrettoPoint::MulBase(Scalar::Random(rng));
  const votegral::DleqStatement statement = votegral::DleqStatement::MakePair(
      RistrettoPoint::Base(), RistrettoPoint::MulBase(x), g2, x * g2);
  constexpr int kProofs = 32;
  std::vector<votegral::DleqTranscript> proofs(kProofs);
  out.dleq_prove_us = MedianPerOp(kTrials, kProofs, 1e6, [&] {
    for (votegral::DleqTranscript& proof : proofs) {
      proof = votegral::ProveDleqFs("lifebench/unit-cost", statement, x, rng);
    }
  });
  bool all_ok = true;
  out.dleq_verify_us = MedianPerOp(kTrials, kProofs, 1e6, [&] {
    for (const votegral::DleqTranscript& proof : proofs) {
      all_ok = all_ok && votegral::VerifyDleqFs("lifebench/unit-cost", statement, proof).ok();
    }
  });
  votegral::Require(all_ok, "lifebench: unit-cost DLEQ proof failed to verify");

  constexpr size_t kMsm = 4096;
  std::vector<Scalar> msm_scalars(kMsm);
  std::vector<RistrettoPoint> msm_points(kMsm);
  for (size_t i = 0; i < kMsm; ++i) {
    msm_scalars[i] = Scalar::Random(rng);
    msm_points[i] = i == 0 ? point : msm_points[i - 1] + point;
  }
  out.msm4096_us_per_point = MedianPerOp(5, static_cast<double>(kMsm), 1e6, [&] {
    sink = sink + votegral::MultiScalarMul(msm_scalars, msm_points);
  });

  const votegral::SchnorrKeyPair key = votegral::SchnorrKeyPair::Generate(rng);
  const votegral::Bytes message = rng.RandomBytes(64);
  out.schnorr_sign_us = MedianPerOp(kTrials, kOps, 1e6, [&] {
    for (int i = 0; i < kOps; ++i) {
      Keep(key.Sign(message, rng));
    }
  });

  const votegral::Bytes block_data = rng.RandomBytes(64 * 1024);
  out.sha256_ns_per_block = MedianPerOp(kTrials, 1024.0, 1e9, [&] {
    Keep(votegral::Sha256::Hash(block_data));
  });
  Keep(sink);
  return out;
}

}  // namespace lifebench
