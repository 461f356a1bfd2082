// Wire-byte DLEQ Fiat–Shamir bench: the before/after evidence for carrying
// canonical encodings through DleqStatement/DleqTranscript (the ROADMAP's
// "batched canonical encoding in DLEQ Fiat–Shamir hashing" item).
//
// Measures, over tagging-shaped 3-element proofs:
//  * proving with producer-filled statement caches vs the encode-per-point
//    framing (the pre-wire prover cost),
//  * challenge derivation alone, cached vs cacheless,
//  * BatchVerifyDleq with complete caches (SHA-only challenges + the
//    decode-free BatchValidateEncodings commit-cache pass) vs fully stripped
//    entries (the pre-wire verifier), at n = 1024 by default.
// Ristretto Encode/Decode invocation deltas are reported next to wall-clock
// numbers: the cached verify path must show ZERO encodes.
//
// Emits BENCH_dleq_fs.json for the CI artifact (docs/BENCHMARKS.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/table.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"

namespace votegral {
namespace {

constexpr std::string_view kDomain = "bench/dleq-fs/v1";

// A tagging-shaped statement: DLEQ over (B, C1, C2) with witness z — the
// 3-element proof the tally's tag chain produced once per ciphertext per
// member before it moved to composite per-shard proofs.
struct TagInstance {
  DleqStatement statement;  // wire-backed
  Scalar witness;
};

TagInstance MakeInstance(const RistrettoPoint& pk, const Scalar& z,
                         const CompressedRistretto& commitment_wire,
                         const RistrettoPoint& commitment, Rng& rng) {
  ElGamalCiphertext input = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  ElGamalCiphertext output = input.ExponentiateBy(z);
  TagInstance inst;
  inst.witness = z;
  inst.statement.bases = {RistrettoPoint::Base(), input.c1, input.c2};
  inst.statement.publics = {commitment, output.c1, output.c2};
  ElGamalWire in_wire = input.Wire();
  ElGamalWire out_wire = output.Wire();
  inst.statement.base_wire = {RistrettoPoint::BaseWire(), ElGamalWireHalf(in_wire, 0),
                              ElGamalWireHalf(in_wire, 1)};
  inst.statement.public_wire = {commitment_wire, ElGamalWireHalf(out_wire, 0),
                                ElGamalWireHalf(out_wire, 1)};
  return inst;
}

DleqStatement Stripped(const DleqStatement& statement) {
  DleqStatement bare = statement;
  bare.base_wire.clear();
  bare.public_wire.clear();
  return bare;
}

struct Row {
  std::string name;
  size_t n = 0;
  double seconds = 0;
  uint64_t encodes = 0;
  uint64_t decodes = 0;
};

Row Measure(const std::string& name, size_t n, const std::function<void()>& body) {
  Row row;
  row.name = name;
  row.n = n;
  uint64_t enc0 = RistrettoEncodeInvocations();
  uint64_t dec0 = RistrettoDecodeInvocations();
  WallTimer timer;
  body();
  row.seconds = timer.Seconds();
  row.encodes = RistrettoEncodeInvocations() - enc0;
  row.decodes = RistrettoDecodeInvocations() - dec0;
  return row;
}

void RunSweep() {
  size_t n = 1024;
  if (const char* env = std::getenv("VOTEGRAL_DLEQ_BENCH_N")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      n = static_cast<size_t>(parsed);
    }
  }

  ChaChaRng rng(0xD1E9);
  Scalar z = Scalar::Random(rng);
  RistrettoPoint commitment = RistrettoPoint::MulBase(z);
  CompressedRistretto commitment_wire = commitment.Encode();
  RistrettoPoint pk = RistrettoPoint::MulBase(Scalar::Random(rng));

  std::vector<TagInstance> instances;
  instances.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    instances.push_back(MakeInstance(pk, z, commitment_wire, commitment, rng));
  }

  std::vector<Row> rows;

  // Prover: wire-backed statements vs the encode-per-point framing.
  std::vector<DleqTranscript> proofs(n);
  rows.push_back(Measure("prove (wire statements)", n, [&] {
    ChaChaRng prove_rng(1);
    for (size_t i = 0; i < n; ++i) {
      proofs[i] = ProveDleqFs(kDomain, instances[i].statement, instances[i].witness,
                              prove_rng);
    }
  }));
  rows.push_back(Measure("prove (legacy framing)", n, [&] {
    ChaChaRng prove_rng(1);
    for (size_t i = 0; i < n; ++i) {
      DleqTranscript t = ProveDleqFs(kDomain, Stripped(instances[i].statement),
                                     instances[i].witness, prove_rng);
      Require(t.challenge == proofs[i].challenge, "dleq bench: framings diverged");
    }
  }));

  // Challenge derivation alone (the per-proof verifier hash).
  rows.push_back(Measure("challenge (wire)", n, [&] {
    for (size_t i = 0; i < n; ++i) {
      Scalar c = DeriveFsChallenge(kDomain, instances[i].statement, proofs[i].commits,
                                   proofs[i].commit_wire, {});
      Require(c == proofs[i].challenge, "dleq bench: wire challenge mismatch");
    }
  }));
  rows.push_back(Measure("challenge (legacy)", n, [&] {
    for (size_t i = 0; i < n; ++i) {
      Scalar c = DeriveFsChallenge(kDomain, Stripped(instances[i].statement),
                                   proofs[i].commits, {});
      Require(c == proofs[i].challenge, "dleq bench: legacy challenge mismatch");
    }
  }));

  // Batched verification: the universal verifier's hot shape.
  std::vector<DleqBatchEntry> cached(n);
  std::vector<DleqBatchEntry> stripped(n);
  for (size_t i = 0; i < n; ++i) {
    cached[i].domain = std::string(kDomain);
    cached[i].statement = instances[i].statement;
    cached[i].transcript = proofs[i];
    stripped[i].domain = std::string(kDomain);
    stripped[i].statement = Stripped(instances[i].statement);
    stripped[i].transcript = proofs[i];
    stripped[i].transcript.commit_wire.clear();
  }
  Row verify_wire = Measure("batch verify (wire)", n, [&] {
    ChaChaRng weights(2);
    Require(BatchVerifyDleq(cached, weights).ok(), "dleq bench: wire batch rejected");
  });
  Row verify_legacy = Measure("batch verify (legacy)", n, [&] {
    ChaChaRng weights(2);
    Require(BatchVerifyDleq(stripped, weights).ok(), "dleq bench: legacy batch rejected");
  });
  Require(verify_wire.encodes == 0,
          "dleq bench: wire-path verification must perform zero encodes");
  rows.push_back(verify_wire);
  rows.push_back(verify_legacy);

  TextTable table("Wire-byte DLEQ Fiat–Shamir — 3-element tagging-shaped proofs");
  table.SetHeader({"Path", "n", "Total", "Per proof (us)", "Encodes", "Decodes"});
  for (const Row& row : rows) {
    char per_proof[32];
    std::snprintf(per_proof, sizeof(per_proof), "%.1f", row.seconds / row.n * 1e6);
    table.AddRow({row.name, std::to_string(row.n), FormatSeconds(row.seconds), per_proof,
                  std::to_string(row.encodes), std::to_string(row.decodes)});
  }
  std::printf("%s\n", table.Format().c_str());
  std::printf("batch verify speedup (legacy/wire): %.2fx; wire path encodes: %llu "
              "(criterion: 0), decodes: %llu (criterion: 0 — commit caches are "
              "checked by BatchValidateEncodings, no roots)\n\n",
              verify_legacy.seconds / verify_wire.seconds,
              static_cast<unsigned long long>(verify_wire.encodes),
              static_cast<unsigned long long>(verify_wire.decodes));

  FILE* json = std::fopen("BENCH_dleq_fs.json", "w");
  Require(json != nullptr, "dleq bench: cannot write BENCH_dleq_fs.json");
  std::fprintf(json, "{\n  \"bench\": \"dleq_fs_wire\",\n  \"proof_shape\": "
                     "\"tagging-3-element\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"path\": \"%s\", \"n\": %zu, \"seconds\": %.6f, "
                 "\"encodes\": %llu, \"decodes\": %llu}%s\n",
                 row.name.c_str(), row.n, row.seconds,
                 static_cast<unsigned long long>(row.encodes),
                 static_cast<unsigned long long>(row.decodes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"batch_verify_speedup\": %.3f\n}\n",
               verify_legacy.seconds / verify_wire.seconds);
  std::fclose(json);
  std::printf("Wrote BENCH_dleq_fs.json\n");
}

}  // namespace
}  // namespace votegral

int main() {
  votegral::RunSweep();
  return 0;
}
