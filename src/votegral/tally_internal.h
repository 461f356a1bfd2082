// Internal machinery of the tally (src/votegral/tally.cpp,
// src/votegral/tally_dataflow.cpp, src/votegral/revote.cpp). Not part of the
// public surface.
//
// The dataflow engine schedules the per-shard kernels declared here as
// TaskGraph nodes; the revote dedup runs some of them under ParallelFor.
// Each kernel writes positionally into pre-sized buffers and draws
// randomness only from the forked child stream handed to it, so the bytes
// depend on (shard boundaries, seed assignment), never on when or where a
// kernel ran — the transcript is byte-identical at any thread count.
#ifndef SRC_VOTEGRAL_TALLY_INTERNAL_H_
#define SRC_VOTEGRAL_TALLY_INTERNAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/votegral/authority_client.h"
#include "src/votegral/tally.h"

namespace votegral {
namespace tally_internal {

// Mutable state threaded through the pipeline: the output under
// construction plus inter-stage working buffers (sharded chunks a stage
// produces for the next one and that are released once consumed).
struct TallyPipelineState {
  TallyOutput output;

  // validate -> dedup: per-ledger-index validation results (nullopt =
  // discarded). Exactly one of the two vectors is populated, by mode.
  std::vector<std::optional<Ballot>> validated_ballots;
  std::vector<std::optional<RevoteBallot>> validated_revotes;
  // revote dedup -> mix: the kept [Enc(vote), Enc(c_pk)] columns, already
  // re-randomized by the revote mix; they become the ballot mix input.
  MixBatch revote_kept;
  // decrypt-tags -> join: roster tag multiset.
  std::map<CompressedRistretto, uint64_t> roster_tag_counts;
  // Accumulated self-check batch for the release gate.
  std::vector<DleqBatchEntry> share_self_check;
  // Degradation bookkeeping: member -> first coded failure (ciphertext
  // order), folded into TallyOutput::excluded_authorities at the end.
  std::map<size_t, Status> authority_blame;
};

// Releases a consumed inter-stage buffer immediately (the streaming
// property: a stage's input shards do not outlive the stage).
template <typename T>
void Release(T& container) {
  T().swap(container);
}

// Epoch tags distinguishing the three decrypt batches in the per-run fault
// schedule: a ciphertext's fault key is (epoch << 32) | index, unique across
// the whole run regardless of batch sizes.
enum : uint64_t {
  kEpochRosterTags = 1,
  kEpochBallotTags = 2,
  kEpochVotes = 3,
  // Revote-mode extra batches (docs/REVOTING.md): the supersession layer's
  // tag and counter decryptions.
  kEpochRevoteTags = 4,
  kEpochRevoteCounters = 5,
};

// Stage-level fault points (mix.shuffle, tag.apply): the whole sub-batch
// operation either runs cleanly or fails with a coded, localized status —
// the mix cascade and tagging chain have no per-item degradation story (a
// missing shuffler breaks the cascade), so injected faults surface as stage
// failures. An injected delay only models latency and does not fail the
// stage; an injected corruption is reported as caught (the cascade's proof
// checks would reject a tampered batch).
Status ProbeStageFault(std::string_view point, uint64_t scope, const char* what);

// The canonical bytes of a tagged ciphertext list: the last step's
// output_wire, read straight from the transcript (no copy; empty span when
// there are no steps or no caches).
std::span<const ElGamalWire> TaggedWire(const std::vector<TaggingStep>& steps);

// Validate-stage kernel: parses and signature-checks ledger ballots
// [begin, end), streaming them off a per-shard cursor (zero-copy segment
// views — at most one segment resident per shard). Writes `validated[i]`
// and an outcome code into `outcome[i]` positionally; disjoint ranges may
// run concurrently.
enum : uint8_t {
  kBallotOk = 0,
  kBallotBadStructure = 1,
  kBallotBadSignature = 2,
};
void ValidateBallotShard(const PublicLedger& ledger,
                         const std::set<CompressedRistretto>& authorized_kiosks,
                         size_t begin, size_t end,
                         std::vector<std::optional<Ballot>>& validated,
                         std::vector<uint8_t>& outcome);

// Sequential, index-ordered fold of the positional outcome codes into the
// discard counters (identical at any thread count).
void TallyValidationOutcomes(std::span<const uint8_t> outcome, TallyDiscards* discards);

// Builds one ballot's width-2 mix item [Enc(vote), Enc(c_pk)] with its wire
// cache filled (Require-fails on a bad credential point — validated ballots
// cannot have one).
MixItem BallotMixItem(const Ballot& ballot);

// Working buffers for one decrypt batch. Shards write positionally into
// these; FinalizeDecryptBatch then performs the sequential, index-ordered
// merges (blame, self-check compaction, shortfall detection) that keep the
// batch deterministic at any thread count.
struct DecryptBatchBuffers {
  size_t members = 0;
  size_t threshold = 0;
  bool armed = false;  // fault plan armed at Init time
  std::vector<std::vector<DecryptionShare>>* shares_out = nullptr;
  std::vector<CompressedRistretto>* encoded_out = nullptr;
  std::vector<DleqBatchEntry> self_check;               // n*members, positional
  std::vector<std::vector<ShareRequestReport>> failed;  // armed ? n : 0
  std::vector<uint8_t> short_of_threshold;

  void Init(const ElectionAuthority& authority, size_t n,
            std::vector<std::vector<DecryptionShare>>* shares,
            std::vector<CompressedRistretto>* encoded);
};

// Decrypt-stage kernel: collects every live authority member's verifiable
// share for ciphertexts [begin, end) through the retrying AuthorityClient,
// drawing proof nonces from `child`. Self-check entries land positionally at
// i*members + m; failures are captured per ciphertext when a fault plan is
// armed. Disjoint ranges may run concurrently.
void DecryptShareShardRange(const TallyService& service, const AuthorityClient& client,
                            std::span<const ElGamalCiphertext> cts,
                            std::span<const ElGamalWire> cts_wire, uint64_t epoch,
                            size_t begin, size_t end, Rng& child,
                            DecryptBatchBuffers& buffers);

// Sequential close of one decrypt batch: merges blame (first failure per
// member in ciphertext order), compacts the positional self-check region
// (excluded members leave empty slots the release gate must not see),
// appends it to the run-wide accumulator, and reports the first ciphertext
// short of the threshold as kUnavailable.
Status FinalizeDecryptBatch(const char* what, DecryptBatchBuffers& buffers,
                            std::vector<DleqBatchEntry>* self_check_accum,
                            std::map<size_t, Status>* blame);

// One whole decrypt batch under ParallelForEach (the revote dedup's path):
// forks per-shard seeds, collects every member's verifiable share for all of
// `cts` (fault keys under `epoch`), and finalizes (blame merge, self-check
// compaction, shortfall detection).
Status DecryptBatchWithShares(const TallyService& service, const char* what,
                              std::span<const ElGamalCiphertext> cts, Rng& rng,
                              uint64_t epoch,
                              std::vector<std::vector<DecryptionShare>>* shares_out,
                              std::vector<CompressedRistretto>* encoded_out,
                              std::vector<DleqBatchEntry>* self_check,
                              std::map<size_t, Status>* blame,
                              std::span<const ElGamalWire> cts_wire = {});

// The whole revote supersession dedup (docs/REVOTING.md), run at the dedup
// stage position: pad -> width-3 mix -> tag credentials ->
// decrypt (tags, counters) -> tag-sort last-write-wins. Consumes
// state.validated_revotes; fills state.output.transcript.revote, the discard
// counters, and state.revote_kept (the ballot-mix input columns of the kept
// items). Internally sharded on the service executor with forked seeds —
// byte-identical at any thread count.
Status RunRevoteDedup(const TallyService& service, Rng& rng, TallyPipelineState& state);

// Join stage: hash-joins ballot tags against the roster tag multiset
// (sequential ordered-map pass; its output order is part of the transcript).
void JoinTags(TallyPipelineState& state);

// Decrypt-votes close: folds decrypted vote points into per-candidate counts
// with the join weights.
void CountVotes(const CandidateList& candidates, TallyPipelineState& state);

// Release gate: the batched self-check over every produced decryption-share
// proof. A failure is an internal fault (Require), not a verification result.
void ReleaseGate(TallyPipelineState& state, Rng& rng);

// The dataflow engine (tally_dataflow.cpp): the whole pipeline scheduled as
// a chunk-granular task graph. Returns fully wrapped errors
// ("<stage> stage: <reason>") and fills `metrics` when non-null.
Outcome<TallyOutput> RunDataflowTally(const TallyService& service, const PublicLedger& ledger,
                                      const CandidateList& candidates,
                                      const std::set<CompressedRistretto>& authorized_kiosks,
                                      Rng& rng, TallyRunMetrics* metrics);

}  // namespace tally_internal
}  // namespace votegral

#endif  // SRC_VOTEGRAL_TALLY_INTERNAL_H_
