// Distributed deterministic tagging (Fig. 3 "blinded credential tags";
// Weber et al. [153], Koenig et al. [82]).
//
// After mixing, each tallier t applies its secret exponent z_t to every
// credential ciphertext on both lists (roster tags and ballot credentials)
// and proves consistency with its public commitment Z_t = z_t·B. After all
// talliers, a ciphertext that encrypted M encrypts (Πz_t)·M; verifiable
// decryption then yields blinded tags that match iff the underlying
// plaintexts matched — the linear-time filter that replaces JCJ/Civitas'
// quadratic pairwise PETs (§7.4).
//
// Proofs are composite (docs/TRANSCRIPTS.md §Composite tagging proofs,
// RFC 9497 §2.2 ComputeComposites): one Chaum–Pedersen proof per (member,
// shard) over the shard Executor::Shards(n, kRngShards) fixes. The prover
// hashes the shard's input and output wire bytes into 128-bit weights
// (d_i, e_i), forms M = Σ d_i·c1_i + e_i·c2_i and proves DLEQ (B, M; Z_t,
// z_t·M). A shard therefore costs 2 variable-base multiplications per
// ciphertext plus O(1), and blame lands on the (member, shard) whose proof
// fails.
//
// Parallel architecture: talliers are inherently sequential (each consumes
// the previous output), but within one tallier's pass every shard is
// independent, so Apply fans the shards across the executor under forked
// per-shard DRBG streams (one proof nonce each), keeping the step
// byte-identical at any thread count. Chain verification expands every
// composite equation into one batched multi-scalar multiplication with
// deterministic weights — step t's outputs and step t+1's inputs share wire
// keys, so they collapse into one term — and falls back to per-shard checks
// to name the offending step and shard on rejection.
#ifndef SRC_VOTEGRAL_TAGGING_H_
#define SRC_VOTEGRAL_TAGGING_H_

#include <vector>

#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/elgamal.h"

namespace votegral {

// One tallier's pass over a ciphertext list.
struct TaggingStep {
  size_t member_index = 0;
  std::vector<ElGamalCiphertext> output;
  // One composite proof per shard of Executor::Shards(output.size(),
  // Executor::kRngShards), in shard order; commits are (y·B, y·M).
  std::vector<DleqTranscript> proofs;

  // Canonical wire bytes of `output`, filled by the prover in the same
  // parallel pass that computed the points (each shard's proof hashes them
  // anyway, so they are free to retain). Attacker data on the verify
  // side: VerifyChain decodes and recompares them before they may enter any
  // weight hash — exactly the MixItem rule. Empty on legacy transcripts.
  std::vector<ElGamalWire> output_wire;

  bool HasWire() const { return !output.empty() && output_wire.size() == output.size(); }
};

// The tagging committee. In deployment these secrets live on the same
// servers as the authority's decryption shares; they are separate keys with
// separate proofs.
class TaggingService {
 public:
  static TaggingService Create(size_t members, Rng& rng);

  size_t size() const { return secrets_.size(); }
  const std::vector<RistrettoPoint>& commitments() const { return commitments_; }

  // Member `i` exponentiates every ciphertext by z_i and proves it, one
  // composite proof per shard. Shards fan out across the executor; proof
  // nonces come from forked per-shard streams, so the step is reproducible
  // at any thread count.
  //
  // `input_wire`, when non-empty, must be the canonical bytes of `input`
  // from a source the caller produced or validated (previous step's
  // output_wire, a validated mix column); the weight hashes then read
  // those bytes instead of re-encoding the input points. The produced step
  // carries output_wire either way, and the transcript is byte-identical
  // with or without the threading.
  TaggingStep Apply(size_t member, const std::vector<ElGamalCiphertext>& input, Rng& rng,
                    Executor& executor = Executor::Global(),
                    std::span<const ElGamalWire> input_wire = {}) const;

  // Pre-sizes a TaggingStep for an n-ciphertext pass by `member` (output
  // and output_wire resized, one proof slot per shard; member_index set).
  // Pair with ApplyShard for chunk-granular scheduling.
  TaggingStep PrepareStep(size_t member, size_t n) const;

  // Fills shard `shard` of a PrepareStep'd `step` — output slots
  // Executor::Shards(input.size(), kRngShards)[shard] and proofs[shard]:
  // exponentiates each input by z_member, encodes the output wire, and
  // proves the shard's composite DLEQ with one nonce from `child` (the
  // forked stream for this shard). `input_wire` (required) holds the
  // canonical bytes of `input` under Apply's trust rule; `commitment_wire`
  // is the member's pre-encoded commitment. Distinct shards may run
  // concurrently; the bytes produced are identical to Apply's for the same
  // seed split.
  void ApplyShard(size_t member, std::span<const ElGamalCiphertext> input,
                  std::span<const ElGamalWire> input_wire,
                  const CompressedRistretto& commitment_wire, size_t shard, Rng& child,
                  TaggingStep& step) const;

  // ApplyShard's proving half: writes proofs[shard] over whatever outputs
  // (and output wires) `step` holds in that shard, hashing
  // `commitment_wire` as the member's published commitment. Public so the
  // soundness tests can play a tagger that proves what it published.
  void ProveShard(size_t member, std::span<const ElGamalCiphertext> input,
                  std::span<const ElGamalWire> input_wire,
                  const CompressedRistretto& commitment_wire, size_t shard, Rng& child,
                  TaggingStep& step) const;

  // Runs all members sequentially, collecting each step and threading each
  // step's wire bytes into the next step's weight hashes. Returns the final
  // tagged ciphertexts.
  std::vector<ElGamalCiphertext> ApplyAll(const std::vector<ElGamalCiphertext>& input,
                                          std::vector<TaggingStep>* steps, Rng& rng,
                                          Executor& executor = Executor::Global(),
                                          std::span<const ElGamalWire> input_wire = {}) const;

  // Verifies a full chain of steps (step i's input is step i-1's output).
  // Every step's composite proofs are expanded into one batched MSM with
  // deterministic weights; on rejection each shard is re-checked on its own
  // to name the offending step and shard ("step t shard s [begin, end)").
  //
  // Wire handling: every step's output_wire (attacker data) is decoded and
  // recompared before it enters any weight hash — a stale cache is a
  // localized failure; steps without caches are encoded fresh, once per
  // chain. `input_wire` optionally supplies already-validated bytes for the
  // chain input (the verifier threads the mix column caches
  // VerifyRpcMixCascade checked).
  static Status VerifyChain(const std::vector<ElGamalCiphertext>& input,
                            const std::vector<TaggingStep>& steps,
                            const std::vector<RistrettoPoint>& commitments,
                            Executor& executor = Executor::Global(),
                            std::span<const ElGamalWire> input_wire = {});

  // Test helper: the combined exponent Πz_t.
  Scalar CombinedExponent() const;

 private:
  std::vector<Scalar> secrets_;
  std::vector<RistrettoPoint> commitments_;
};

}  // namespace votegral

#endif  // SRC_VOTEGRAL_TAGGING_H_
