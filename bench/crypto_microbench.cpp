// Micro-benchmarks (google-benchmark) for the primitives backing every
// figure: ristretto255 point arithmetic, Schnorr, ElGamal, Chaum–Pedersen,
// the 2048-bit Schnorr-group exponentiation (Civitas substrate), hashing,
// and the protocol hot paths (credential issuance, activation, PET).
#include <benchmark/benchmark.h>

#include "src/crypto/batch.h"
#include "src/crypto/dkg.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/modp.h"
#include "src/crypto/msm.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha512.h"
#include "src/trip/registrar.h"
#include "src/votegral/ballot.h"

namespace votegral {
namespace {

void BM_Sha256_1k(benchmark::State& state) {
  ChaChaRng rng(1);
  Bytes data = rng.RandomBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
}
BENCHMARK(BM_Sha256_1k);

void BM_Sha512_1k(benchmark::State& state) {
  ChaChaRng rng(2);
  Bytes data = rng.RandomBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
}
BENCHMARK(BM_Sha512_1k);

void BM_RistrettoMulBase(benchmark::State& state) {
  ChaChaRng rng(3);
  Scalar s = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RistrettoPoint::MulBase(s));
  }
}
BENCHMARK(BM_RistrettoMulBase);

void BM_RistrettoMulBaseSlow(benchmark::State& state) {
  ChaChaRng rng(4);
  Scalar s = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RistrettoPoint::MulBaseSlow(s));
  }
}
BENCHMARK(BM_RistrettoMulBaseSlow);

void BM_RistrettoVarMul(benchmark::State& state) {
  ChaChaRng rng(5);
  RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  Scalar s = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s * p);
  }
}
BENCHMARK(BM_RistrettoVarMul);

void BM_RistrettoEncodeDecode(benchmark::State& state) {
  ChaChaRng rng(6);
  RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    auto enc = p.Encode();
    benchmark::DoNotOptimize(RistrettoPoint::Decode(enc));
  }
}
BENCHMARK(BM_RistrettoEncodeDecode);

void BM_SchnorrSign(benchmark::State& state) {
  ChaChaRng rng(7);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  ChaChaRng rng(8);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("benchmark message");
  auto sig = kp.Sign(msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrVerify(kp.public_bytes(), msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_ElGamalEncrypt(benchmark::State& state) {
  ChaChaRng rng(9);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalEncrypt(pk, msg, rng));
  }
}
BENCHMARK(BM_ElGamalEncrypt);

// One mix re-encryption: MulBase for C1 and the key's PrecomputedBase for
// C2, the table the tally builds once per authority.
void BM_ElGamalReRandomize(benchmark::State& state) {
  ChaChaRng rng(12);
  const RistrettoPoint pk = RistrettoPoint::MulBase(Scalar::Random(rng));
  const PrecomputedBase pk_table(pk);
  const ElGamalCiphertext ct =
      ElGamalEncrypt(pk, RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng);
  const Scalar r = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ct.ReRandomize(pk_table, r));
  }
}
BENCHMARK(BM_ElGamalReRandomize);

// Building one 64x8 affine-Niels table (an authority's setup cost).
void BM_PrecomputedBaseBuild(benchmark::State& state) {
  ChaChaRng rng(13);
  const RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    PrecomputedBase table(p);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_PrecomputedBaseBuild)->Unit(benchmark::kMicrosecond);

void BM_DleqProveFs(benchmark::State& state) {
  ChaChaRng rng(10);
  Scalar x = Scalar::Random(rng);
  RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  DleqStatement st = DleqStatement::MakePair(RistrettoPoint::Base(),
                                             RistrettoPoint::MulBase(x), g2, x * g2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProveDleqFs("bench", st, x, rng));
  }
}
BENCHMARK(BM_DleqProveFs);

void BM_DleqVerifyFs(benchmark::State& state) {
  ChaChaRng rng(11);
  Scalar x = Scalar::Random(rng);
  RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  DleqStatement st = DleqStatement::MakePair(RistrettoPoint::Base(),
                                             RistrettoPoint::MulBase(x), g2, x * g2);
  auto proof = ProveDleqFs("bench", st, x, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyDleqFs("bench", st, proof));
  }
}
BENCHMARK(BM_DleqVerifyFs);

void BM_ModPExp2048(benchmark::State& state) {
  ChaChaRng rng(12);
  const ModPGroup& group = ModPGroup::Standard();
  QScalar e = group.QRandom(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.ExpG(e));
  }
}
BENCHMARK(BM_ModPExp2048);

void BM_ModPPetSingleTrustee(benchmark::State& state) {
  ChaChaRng rng(13);
  const ModPGroup& group = ModPGroup::Standard();
  QScalar sk = group.QRandom(rng);
  ModPElement pk = group.ExpG(sk);
  ModPElement m = group.ExpG(group.QRandom(rng));
  ModPCiphertext a = ModPEncrypt(group, pk, m, group.QRandom(rng));
  ModPCiphertext b = ModPEncrypt(group, pk, m, group.QRandom(rng));
  QScalar z = group.QRandom(rng);
  ModPElement commitment = group.ExpG(z);
  for (auto _ : state) {
    ModPCiphertext q = ModPQuotient(group, a, b);
    benchmark::DoNotOptimize(PetBlind(group, q, z, commitment, rng));
  }
}
BENCHMARK(BM_ModPPetSingleTrustee);

// ---- Multi-scalar multiplication: MSM engine vs per-term evaluation ----

struct MsmFixture {
  std::vector<Scalar> scalars;
  std::vector<RistrettoPoint> points;

  explicit MsmFixture(size_t n, uint64_t seed) {
    ChaChaRng rng(seed);
    scalars.reserve(n);
    points.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      scalars.push_back(Scalar::Random(rng));
      points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
    }
  }
};

void BM_MsmNaive(benchmark::State& state) {
  MsmFixture fx(static_cast<size_t>(state.range(0)), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiScalarMulNaive(fx.scalars, fx.points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MsmNaive)->Arg(16)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Msm(benchmark::State& state) {
  MsmFixture fx(static_cast<size_t>(state.range(0)), 20);  // same inputs as naive
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiScalarMul(fx.scalars, fx.points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Msm)->Arg(16)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_MsmDoubleScalarMulBase(benchmark::State& state) {
  ChaChaRng rng(21);
  Scalar a = Scalar::Random(rng);
  Scalar b = Scalar::Random(rng);
  RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RistrettoPoint::DoubleScalarMulBase(a, p, b));
  }
}
BENCHMARK(BM_MsmDoubleScalarMulBase);

// ---- Batched Schnorr verification: seed accumulation vs MSM ----

std::vector<SchnorrBatchEntry> MakeSchnorrBatch(size_t n, uint64_t seed) {
  ChaChaRng rng(seed);
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto kp = SchnorrKeyPair::Generate(rng);
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(32);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

// The seed's BatchVerifySchnorr hot path, preserved verbatim for the
// perf-trajectory comparison: the combined equation is evaluated with one
// variable-base `operator*` chain per entry (each rebuilding its own window
// table) instead of one flat MSM.
Status BatchVerifySchnorrSeedPath(std::span<const SchnorrBatchEntry> entries, Rng& rng) {
  Scalar combined_s = Scalar::Zero();
  RistrettoPoint accumulator;  // identity
  for (const SchnorrBatchEntry& entry : entries) {
    auto pk = RistrettoPoint::Decode(entry.public_key);
    auto r = RistrettoPoint::Decode(entry.signature.r_bytes);
    if (!pk.has_value() || !r.has_value()) {
      return Status::Error("batch-schnorr: undecodable point");
    }
    Bytes wide(64, 0);
    rng.Fill(std::span<uint8_t>(wide.data(), 16));
    Scalar weight = Scalar::FromBytesWide(wide);
    Scalar challenge = Scalar::FromBytesWide(Sha512::HashParts(
        {AsBytes("votegral/schnorr/challenge/v1"), entry.signature.r_bytes,
         entry.public_key, entry.message}));
    combined_s = combined_s + weight * entry.signature.s;
    accumulator = accumulator + (weight * challenge) * *pk + weight * *r;
  }
  if (!(RistrettoPoint::MulBase(combined_s) == accumulator)) {
    return Status::Error("batch-schnorr: combined verification equation failed");
  }
  return Status::Ok();
}

void BM_BatchVerifySchnorrSeedPath(benchmark::State& state) {
  auto entries = MakeSchnorrBatch(static_cast<size_t>(state.range(0)), 22);
  ChaChaRng rng(23);
  for (auto _ : state) {
    Status s = BatchVerifySchnorrSeedPath(entries, rng);
    Require(s.ok(), "bench: seed-path batch verification must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifySchnorrSeedPath)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_BatchVerifySchnorrMsm(benchmark::State& state) {
  auto entries = MakeSchnorrBatch(static_cast<size_t>(state.range(0)), 22);
  ChaChaRng rng(23);
  for (auto _ : state) {
    Status s = BatchVerifySchnorr(entries, rng);
    Require(s.ok(), "bench: MSM batch verification must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifySchnorrMsm)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Accumulation-stage comparison at fixed batch size: identical pre-decoded
// points, weights and challenges; only the evaluation strategy differs.
// This isolates exactly the "per-entry accumulation path vs MSM" question —
// the end-to-end BM_BatchVerifySchnorr* pair above additionally pays the
// (identical on both sides) per-entry decode + hash cost.
struct SchnorrAccumFixture {
  std::vector<RistrettoPoint> pks;
  std::vector<RistrettoPoint> rs;
  std::vector<Scalar> weights;
  std::vector<Scalar> challenges;
  Scalar combined_s = Scalar::Zero();

  explicit SchnorrAccumFixture(size_t n) {
    ChaChaRng rng(25);
    auto entries = MakeSchnorrBatch(n, 22);
    for (const SchnorrBatchEntry& entry : entries) {
      pks.push_back(*RistrettoPoint::Decode(entry.public_key));
      rs.push_back(*RistrettoPoint::Decode(entry.signature.r_bytes));
      Bytes wide(64, 0);
      rng.Fill(std::span<uint8_t>(wide.data(), 16));
      weights.push_back(Scalar::FromBytesWide(wide));
      challenges.push_back(Scalar::FromBytesWide(Sha512::HashParts(
          {AsBytes("votegral/schnorr/challenge/v1"), entry.signature.r_bytes,
           entry.public_key, entry.message})));
      combined_s = combined_s + weights.back() * entry.signature.s;
    }
  }
};

void BM_SchnorrAccumSeedPath(benchmark::State& state) {
  SchnorrAccumFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RistrettoPoint accumulator;
    for (size_t i = 0; i < fx.pks.size(); ++i) {
      accumulator = accumulator + (fx.weights[i] * fx.challenges[i]) * fx.pks[i] +
                    fx.weights[i] * fx.rs[i];
    }
    bool ok = RistrettoPoint::MulBase(fx.combined_s) == accumulator;
    Require(ok, "bench: seed accumulation equation must hold");
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchnorrAccumSeedPath)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SchnorrAccumMsm(benchmark::State& state) {
  SchnorrAccumFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Scalar> scalars;
    std::vector<RistrettoPoint> points;
    scalars.reserve(2 * fx.pks.size());
    points.reserve(2 * fx.pks.size());
    for (size_t i = 0; i < fx.pks.size(); ++i) {
      scalars.push_back(-(fx.weights[i] * fx.challenges[i]));
      points.push_back(fx.pks[i]);
      scalars.push_back(-fx.weights[i]);
      points.push_back(fx.rs[i]);
    }
    bool ok = MultiScalarMulWithBase(fx.combined_s, scalars, points).IsIdentity();
    Require(ok, "bench: MSM accumulation equation must hold");
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchnorrAccumMsm)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_ScalarWideReduction(benchmark::State& state) {
  // Exercises Barrett Reduce512 via the wide-bytes path (one reduction per
  // call, no group operations).
  ChaChaRng rng(24);
  Bytes wide = rng.RandomBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Scalar::FromBytesWide(wide));
  }
}
BENCHMARK(BM_ScalarWideReduction);

void BM_RistrettoBatchEncode(benchmark::State& state) {
  ChaChaRng rng(27);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<RistrettoPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
  }
  std::vector<CompressedRistretto> out(n);
  for (auto _ : state) {
    BatchEncodePoints(points, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RistrettoBatchEncode)->Arg(256)->Unit(benchmark::kMicrosecond);

// ---- Shared-base MSM: 1024 signatures under ONE key vs distinct keys ----
//
// BM_SchnorrAccumMsm above is the distinct-key baseline (2n+1 MSM terms).
// With every signature under the same public key the shared engine folds the
// pk column into a single term (n+1 terms and a cached table); the ratio of
// the two *SharedKey rows is the collapse win.

std::vector<SchnorrBatchEntry> MakeSchnorrBatchOneKey(size_t n, uint64_t seed) {
  ChaChaRng rng(seed);
  auto kp = SchnorrKeyPair::Generate(rng);
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(32);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

void BM_BatchVerifySchnorrSharedKeyBaseline(benchmark::State& state) {
  // Same single-signer batch, evaluated WITHOUT the wire-key collapse: one
  // pk term per signature, exactly what BatchVerifySchnorr did before the
  // shared-base engine.
  auto entries = MakeSchnorrBatchOneKey(static_cast<size_t>(state.range(0)), 28);
  ChaChaRng rng(29);
  for (auto _ : state) {
    Status s = BatchVerifySchnorrSeedPath(entries, rng);
    Require(s.ok(), "bench: shared-key baseline must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifySchnorrSharedKeyBaseline)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_BatchVerifySchnorrSharedKey(benchmark::State& state) {
  auto entries = MakeSchnorrBatchOneKey(static_cast<size_t>(state.range(0)), 28);
  ChaChaRng rng(29);
  ResetSharedMsmForTest();
  for (auto _ : state) {
    Status s = BatchVerifySchnorr(entries, rng);
    Require(s.ok(), "bench: shared-key batch must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  MsmSharedStats stats = SharedMsmStats();
  state.counters["collapsed_per_call"] = benchmark::Counter(
      static_cast<double>(stats.collapsed_terms) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BatchVerifySchnorrSharedKey)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// ---- One validate shard: batched vs per-item signature checks ----
//
// The tally's validate stage checks each ledger shard's ballots as one
// BatchVerifySchnorr call (hash-seeded weights); the per-item path now runs
// only to localize a failure. The shape is one shard of the `election`
// workload: ~19 ballots, kiosk certificates under 4 kiosk keys, and one
// distinct credential key per ballot — 38 signatures, 4 + 19 distinct keys.

std::vector<SchnorrBatchEntry> MakeValidateShardSignatures(size_t ballots, size_t kiosks,
                                                           uint64_t seed) {
  ChaChaRng rng(seed);
  std::vector<SchnorrKeyPair> kiosk_keys;
  for (size_t k = 0; k < kiosks; ++k) {
    kiosk_keys.push_back(SchnorrKeyPair::Generate(rng));
  }
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(2 * ballots);
  for (size_t i = 0; i < ballots; ++i) {
    const SchnorrKeyPair& kiosk = kiosk_keys[i % kiosks];
    SchnorrKeyPair credential = SchnorrKeyPair::Generate(rng);
    Ballot ballot;
    ballot.encrypted_vote = ElGamalEncrypt(RistrettoPoint::Base(), RistrettoPoint::Base(), rng);
    ballot.credential_pk = credential.public_bytes();
    ballot.kiosk_pk = kiosk.public_bytes();
    rng.Fill(ballot.kiosk_cert_hash);
    ballot.kiosk_cert = kiosk.Sign(
        ResponseSegment::SignedPayload(ballot.credential_pk, ballot.kiosk_cert_hash), rng);
    ballot.credential_sig = credential.Sign(ballot.SignedPayload(), rng);
    for (SchnorrBatchEntry& entry : BallotSignatureEntries(ballot)) {
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

void BM_ValidateShardBatched(benchmark::State& state) {
  auto entries = MakeValidateShardSignatures(static_cast<size_t>(state.range(0)), 4, 30);
  for (auto _ : state) {
    ChaChaRng weights(SchnorrBatchWeightSeed("bench/validate-shard", entries));
    Status s = BatchVerifySchnorr(entries, weights);
    Require(s.ok(), "bench: validate-shard batch must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_ValidateShardBatched)->Arg(19)->Unit(benchmark::kMicrosecond);

void BM_ValidateShardPerItem(benchmark::State& state) {
  auto entries = MakeValidateShardSignatures(static_cast<size_t>(state.range(0)), 4, 30);
  for (auto _ : state) {
    for (const SchnorrBatchEntry& entry : entries) {
      Status s = SchnorrVerify(entry.public_key, entry.message, entry.signature);
      Require(s.ok(), "bench: validate-shard signature must pass");
      benchmark::DoNotOptimize(s);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_ValidateShardPerItem)->Arg(19)->Unit(benchmark::kMicrosecond);

void BM_TripFullRegistration(benchmark::State& state) {
  // The TRIP-Core per-voter registration crypto path (kiosk + official +
  // activation; 1 real + 1 fake) — the per-voter unit behind Fig. 5a.
  ChaChaRng rng(14);
  std::vector<std::string> roster;
  for (int i = 0; i < 20000; ++i) {
    roster.push_back("v" + std::to_string(i));
  }
  TripSystemParams params;
  params.roster = roster;
  params.envelopes_per_voter = 3;
  TripSystem system = TripSystem::Create(params, rng);
  Vsd vsd = system.MakeVsd();
  size_t next = 0;
  for (auto _ : state) {
    auto voter = RegisterAndActivate(system, roster.at(next++), 1, vsd, rng);
    benchmark::DoNotOptimize(voter.ok());
  }
}
BENCHMARK(BM_TripFullRegistration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace votegral

BENCHMARK_MAIN();
