#include "src/crypto/batch.h"

#include <array>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

Scalar SchnorrChallenge(const CompressedRistretto& r_bytes,
                        const CompressedRistretto& pk_bytes,
                        std::span<const uint8_t> message) {
  // Must match src/crypto/schnorr.cpp.
  auto digest = Sha512::HashParts(
      {AsBytes("votegral/schnorr/challenge/v1"), r_bytes, pk_bytes, message});
  return Scalar::FromBytesWide(digest);
}

// Reports the lowest failed entry index, or OK. Per-entry failure flags are
// written positionally by parallel workers, so the report is deterministic.
Status FirstFailure(std::span<const uint8_t> failed, const char* what) {
  if (auto i = FirstMarked(failed); i.has_value()) {
    return Status::Error(std::string(what) + " at entry " + std::to_string(*i));
  }
  return Status::Ok();
}

}  // namespace

Status BatchVerifySchnorr(std::span<const SchnorrBatchEntry> entries, Rng& rng) {
  // Each signature satisfies: s_i*B - c_i*P_i - R_i == 0.
  // Combined: (sum_i w_i*s_i)*B - sum_i (w_i*c_i)*P_i - sum_i w_i*R_i == 0.
  // All weighted terms are collected into one flat multi-scalar
  // multiplication; the shared-doubling/bucket engine amortizes the group
  // work to a few additions per signature.
  //
  // Entry preparation splits into two pooled passes: every distinct public
  // key and every R go through one batched ristretto decode — the per-point
  // inverse-square-root cost, fanned out with fixed positions — and a second
  // pass hashes challenges and writes the weighted terms, with each shard
  // accumulating a partial of the fixed-base coefficient merged in shard
  // order. A public key is decoded once per batch however many entries it
  // signs: a ballot shard repeats a few kiosk keys, and the roster repeats a
  // few kiosk and official keys across every record. Weights are drawn from
  // `rng` up front, sequentially, so the weight stream is independent of
  // scheduling.
  const size_t n = entries.size();
  if (n == 0) {
    return Status::Ok();
  }
  std::vector<Scalar> weights(n);
  for (Scalar& w : weights) {
    w = RandomRlcWeight(rng);
  }

  // wire = [pk_0, R_0, pk_1, R_1, ...]: the MSM's term keys. `raw` holds the
  // bytes to decode: R_i at i, then each distinct key once; pk_slot[i] is
  // where entry i's key landed.
  std::vector<CompressedRistretto> wire(2 * n);
  std::vector<CompressedRistretto> raw(n);
  std::vector<size_t> pk_slot(n);
  std::unordered_map<CompressedRistretto, size_t, CompressedRistrettoHash> key_slot;
  for (size_t i = 0; i < n; ++i) {
    wire[2 * i] = entries[i].public_key;
    wire[2 * i + 1] = entries[i].signature.r_bytes;
    raw[i] = entries[i].signature.r_bytes;
    auto [it, inserted] = key_slot.try_emplace(entries[i].public_key, raw.size());
    if (inserted) {
      raw.push_back(entries[i].public_key);
    }
    pk_slot[i] = it->second;
  }
  std::vector<RistrettoPoint> decoded(raw.size());
  std::vector<uint8_t> decode_ok(raw.size(), 0);
  BatchDecodePoints(raw, decoded, decode_ok);

  std::vector<Scalar> scalars(2 * n);
  std::vector<RistrettoPoint> points(2 * n);
  std::vector<uint8_t> bad(n, 0);
  Executor& executor = Executor::Current();
  auto shards = Executor::Shards(n, Executor::kRngShards);
  std::vector<Scalar> partial = executor.ParallelMap<Scalar>(shards.size(), [&](size_t s) {
    Scalar sum = Scalar::Zero();
    for (size_t i = shards[s].first; i < shards[s].second; ++i) {
      const SchnorrBatchEntry& entry = entries[i];
      if (!decode_ok[pk_slot[i]] || !decode_ok[i]) {
        bad[i] = 1;
        continue;
      }
      Scalar challenge = SchnorrChallenge(entry.signature.r_bytes, entry.public_key,
                                          entry.message);
      sum = sum + weights[i] * entry.signature.s;
      scalars[2 * i] = -(weights[i] * challenge);
      points[2 * i] = decoded[pk_slot[i]];
      scalars[2 * i + 1] = -weights[i];
      points[2 * i + 1] = decoded[i];
    }
    return sum;
  });
  if (Status s = FirstFailure(bad, "batch-schnorr: undecodable point"); !s.ok()) {
    return s;
  }
  Scalar combined_s = Scalar::Zero();
  for (const Scalar& p : partial) {
    combined_s = combined_s + p;
  }
  // Every term's wire bytes are in hand (`wire` is what the points were
  // decoded from), so the shared-base MSM can sum the weights of repeated
  // public keys — one term per distinct signer instead of one per signature.
  std::vector<uint8_t> keyed(2 * n, 1);
  if (!MultiScalarMulShared(combined_s, scalars, points, wire, keyed).IsIdentity()) {
    return Status::Error("batch-schnorr: combined verification equation failed");
  }
  return Status::Ok();
}

std::array<uint8_t, 64> SchnorrBatchWeightSeed(std::string_view domain,
                                               std::span<const SchnorrBatchEntry> entries) {
  Sha512 h;
  h.Update(AsBytes(domain));
  for (const SchnorrBatchEntry& entry : entries) {
    h.Update(entry.public_key);
    h.Update(entry.signature.r_bytes);
    h.Update(entry.signature.s.ToBytes());
    std::array<uint8_t, 8> length;
    StoreLe64(length.data(), entry.message.size());
    h.Update(length);
    h.Update(entry.message);
  }
  return h.Finalize();
}

std::array<uint8_t, 64> DleqBatchWeightSeed(std::string_view domain,
                                            std::span<const DleqBatchEntry> entries) {
  Sha512 h;
  h.Update(AsBytes(domain));
  for (const DleqBatchEntry& entry : entries) {
    h.Update(entry.transcript.challenge.ToBytes());
    h.Update(entry.transcript.response.ToBytes());
  }
  return h.Finalize();
}

Status BatchVerifyDleq(std::span<const DleqBatchEntry> entries, Rng& rng) {
  // Each proof satisfies, for every pair j:
  //   r_i*G_ij + e_i*P_ij - Y_ij == 0.
  // All pairs of all proofs are combined with independent weights into a
  // single multi-scalar multiplication that must evaluate to the identity.
  //
  // Wire-byte path (docs/TRANSCRIPTS.md §DLEQ): statements built by the
  // caller carry producer-local encodings, and transcripts carry the
  // prover's commit encodings — but the latter are attacker data, so before
  // any cached byte may bind challenge bits, every present commit cache is
  // decoded back and recompared against the commit points in one batched
  // ristretto decode pass (the PR 2 MixItem rule; a stale or forged cache is
  // a localized failure). Challenge recomputation is then SHA-only for fully
  // cached entries; entries without caches fall back to encode-per-point,
  // which also keeps the pre-wire framing benchable.
  const size_t n = entries.size();
  std::vector<size_t> offset(n + 1, 0);  // term offset (3 per pair)
  for (size_t i = 0; i < n; ++i) {
    const DleqStatement& st = entries[i].statement;
    const DleqTranscript& t = entries[i].transcript;
    if (st.bases.size() != st.publics.size() || t.commits.size() != st.bases.size()) {
      return Status::Error("batch-dleq: malformed entry");
    }
    offset[i + 1] = offset[i] + st.bases.size();
  }
  const size_t total_pairs = offset[n];
  std::vector<Scalar> weights(total_pairs);
  for (Scalar& w : weights) {
    w = RandomRlcWeight(rng);
  }

  // Commit-cache validation: gather every cached commit byte string (flat,
  // entry order) and check each against its commit point in one accumulator
  // pass — BatchValidateEncodings amortizes the field inversions across the
  // whole producer batch and never pays a per-commit decode (~8 field
  // multiplications per commit instead of an inverse square root).
  {
    std::vector<uint8_t> bad_cache(n, 0);
    std::vector<CompressedRistretto> cache_bytes;
    std::vector<RistrettoPoint> cache_points;
    std::vector<size_t> cache_entry;  // flat slot -> entry
    cache_bytes.reserve(total_pairs);
    cache_points.reserve(total_pairs);
    cache_entry.reserve(total_pairs);
    for (size_t i = 0; i < n; ++i) {
      const DleqTranscript& t = entries[i].transcript;
      if (t.commit_wire.empty()) {
        continue;  // cacheless entry: legal, hashes encode fresh below
      }
      if (t.commit_wire.size() != t.commits.size()) {
        bad_cache[i] = 1;
        continue;
      }
      for (size_t j = 0; j < t.commit_wire.size(); ++j) {
        cache_bytes.push_back(t.commit_wire[j]);
        cache_points.push_back(t.commits[j]);
        cache_entry.push_back(i);
      }
    }
    std::vector<uint8_t> cache_ok(cache_bytes.size(), 0);
    size_t mismatches = BatchValidateEncodings(cache_points, cache_bytes, cache_ok);
    if (mismatches != 0) {
      // Fold per-slot flags sequentially: two slots of one entry can come
      // from different shards, so the parallel pass never writes entry bytes.
      for (size_t k = 0; k < cache_ok.size(); ++k) {
        if (!cache_ok[k]) {
          bad_cache[cache_entry[k]] = 1;
        }
      }
    }
    if (Status s = FirstFailure(bad_cache, "batch-dleq: commit wire cache does not match commits");
        !s.ok()) {
      return s;
    }
  }

  std::vector<Scalar> scalars(3 * total_pairs);
  std::vector<RistrettoPoint> points(3 * total_pairs);
  std::vector<CompressedRistretto> keys(3 * total_pairs);
  std::vector<uint8_t> keyed(3 * total_pairs, 0);
  std::vector<uint8_t> bad(n, 0);
  Executor::Current().ParallelForEach(n, [&](size_t i) {
    const DleqBatchEntry& entry = entries[i];
    const DleqStatement& st = entry.statement;
    const DleqTranscript& t = entry.transcript;
    // The Fiat–Shamir challenge must still bind per proof. SHA-only when the
    // caches (validated above) are complete.
    Scalar expected =
        DeriveFsChallenge(entry.domain, st, t.commits, t.commit_wire, entry.extra);
    if (expected != t.challenge) {
      bad[i] = 1;
      return;
    }
    // Wire bytes become shared-MSM keys where available: statement caches are
    // producer-local (verifiers build their own statements), and commit
    // caches were validated against the commit points above. A batch over one
    // producer repeats its bases and public keys in every entry, so the
    // keyed collapse folds those columns into one term each.
    const bool st_wire = st.HasWire();
    const bool commit_wire = t.commit_wire.size() == t.commits.size();
    for (size_t j = 0; j < st.bases.size(); ++j) {
      const Scalar& weight = weights[offset[i] + j];
      size_t at = 3 * (offset[i] + j);
      scalars[at] = weight * t.response;
      points[at] = st.bases[j];
      scalars[at + 1] = weight * t.challenge;
      points[at + 1] = st.publics[j];
      scalars[at + 2] = -weight;
      points[at + 2] = t.commits[j];
      if (st_wire) {
        keys[at] = st.base_wire[j];
        keyed[at] = 1;
        keys[at + 1] = st.public_wire[j];
        keyed[at + 1] = 1;
      }
      if (commit_wire) {
        keys[at + 2] = t.commit_wire[j];
        keyed[at + 2] = 1;
      }
    }
  });
  if (Status s = FirstFailure(bad, "batch-dleq: challenge mismatch"); !s.ok()) {
    return s;
  }
  if (!MultiScalarMulShared(Scalar::Zero(), scalars, points, keys, keyed).IsIdentity()) {
    return Status::Error("batch-dleq: combined verification equation failed");
  }
  return Status::Ok();
}

}  // namespace votegral
