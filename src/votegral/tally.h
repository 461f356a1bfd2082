// The Votegral tally pipeline (Fig. 3, Appendix M), restructured as an
// explicit staged, sharded, parallel pipeline:
//
//   validate -> dedup -> mix -> tag -> decrypt-tags -> join -> decrypt-votes
//                                                        (-> release gate)
//
// Stage/shard architecture:
//  * Each stage consumes the previous stage's output as sharded chunks
//    (Executor::Shards — boundaries fixed by the data size, never by the
//    thread count) and fans per-ballot work (signature validation, mix
//    re-encryption, tagging exponentiations, decryption shares) out across
//    the work pool (src/common/executor.h).
//  * Stages that consume randomness draw forked per-shard DRBG streams
//    (ForkRngSeeds) from the caller's Rng, so the transcript is
//    byte-identical at any thread count — `threads=1` and `threads=64`
//    produce the same election, bit for bit.
//  * Intermediate shards are working state, released as soon as the next
//    stage has consumed them; only what universal verification needs is
//    retained in TallyTranscript. Ballots are streamed off the ledger's
//    storage backend per shard (PublicLedger::BallotCursor — zero-copy
//    segment views, never a wholesale copy), so the validate stage works
//    unchanged against the in-memory store or a file-backed segmented log
//    larger than RAM.
//
// Everything needed for universal verification is collected in
// TallyTranscript; see src/votegral/verifier.h.
#ifndef SRC_VOTEGRAL_TALLY_H_
#define SRC_VOTEGRAL_TALLY_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/executor.h"
#include "src/common/faults.h"
#include "src/common/outcome.h"
#include "src/crypto/batch.h"
#include "src/crypto/dkg.h"
#include "src/ledger/subledgers.h"
#include "src/votegral/authority_client.h"
#include "src/votegral/ballot.h"
#include "src/votegral/mixnet.h"
#include "src/votegral/revote.h"
#include "src/votegral/tagging.h"

namespace votegral {

// Aggregate discard statistics (published with the result).
struct TallyDiscards {
  size_t invalid_structure = 0;  // unparseable ledger payloads
  size_t invalid_signature = 0;  // bad credential sig / kiosk cert
  size_t superseded = 0;         // earlier ballots from re-voting credentials
  size_t unmatched_tag = 0;      // fake-credential ballots (by design)
  size_t duplicate_tag = 0;      // second ballot matching an already-used tag
  size_t invalid_vote = 0;       // decrypts outside the candidate set
};

// The published election result.
struct TallyResult {
  std::map<std::string, size_t> counts;  // candidate -> votes
  size_t counted = 0;
  TallyDiscards discards;
};

// Every artifact an auditor needs to re-check the tally from the ledger.
struct TallyTranscript {
  // Validate/dedup outputs: the validated, deduplicated ballots, in
  // mix-input order (recomputable from L_V by any auditor).
  std::vector<Ballot> accepted_ballots;

  // Mix stage.
  MixBatch ballot_mix_input;   // width 2: [Enc(vote), Enc(c_pk)]
  MixBatch ballot_mix_output;
  MixProof ballot_mix_proof;
  MixBatch roster_mix_input;   // width 1: [c_pc]
  MixBatch roster_mix_output;
  MixProof roster_mix_proof;

  // Tag stage: tagging chains over the credential ciphertexts.
  std::vector<TaggingStep> ballot_tag_steps;
  std::vector<TaggingStep> roster_tag_steps;

  // Decrypt-tags stage: verifiable tag decryption.
  std::vector<std::vector<DecryptionShare>> ballot_tag_shares;  // [ct][member]
  std::vector<std::vector<DecryptionShare>> roster_tag_shares;
  std::vector<CompressedRistretto> ballot_tags;
  std::vector<CompressedRistretto> roster_tags;

  // Join / decrypt-votes stages: which mixed ballots counted, with what
  // weight (weight > 1 arises only when several roster tags decrypt to the
  // same credential — the delegation extension of Appendix C.3), and their
  // verifiable vote decryptions.
  std::vector<uint64_t> counted_indices;  // into ballot_mix_output
  std::vector<uint64_t> counted_weights;  // parallel: matching roster tags
  std::vector<std::vector<DecryptionShare>> vote_shares;  // parallel to counted_indices
  std::vector<CompressedRistretto> vote_points;

  // Deniable-revoting section (docs/REVOTING.md): the verifiable supersession
  // dedup that replaces the plaintext dedup under ElectionConfig::revoting.
  // Empty in legacy elections — the pre-revoting transcript digests are
  // unchanged.
  RevoteTranscript revote;
};

// Localized blame for an authority member excluded from the tally: the
// coded status names the member, the fault point and the failure class
// (unavailable / timeout / invalid_proof / exhausted). Recorded once per
// member with the first failure observed in ciphertext order, so the record
// is deterministic at any thread count.
struct AuthorityBlame {
  size_t member_index = 0;
  Status status = Status::Ok();
};

struct TallyOutput {
  TallyResult result;
  TallyTranscript transcript;
  // Members the decrypt stages excluded under t-of-n degradation (empty on
  // the happy path, and always empty in additive n-of-n mode — there a
  // single failed member fails the whole tally instead). Not part of the
  // transcript digest: the transcript itself records participation via each
  // share's member_index.
  std::vector<AuthorityBlame> excluded_authorities;
};

// The tally's scheduler. There is one: the chunk-granular dataflow engine
// (src/votegral/tally_dataflow.cpp). The type and TallyService's parameter
// remain so existing call sites (lifebench/) keep compiling.
enum class TallyEngine { kDataflow };

// Per-run scheduler observability, filled by Run() on request. Busy times
// are summed task-graph node execution seconds per stage; busy/(wall*threads)
// per stage is the occupancy number the streaming bench reports.
struct TallyStageBusy {
  std::string name;
  double busy_seconds = 0.0;
};

struct TallyRunMetrics {
  double wall_seconds = 0.0;
  size_t threads = 0;
  std::vector<TallyStageBusy> stages;
  // Executor counters straddling the run (delta = this run's scheduling).
  ExecutorStats executor_start;
  ExecutorStats executor_end;
};

// The tally service: runs the pipeline with the authority's and tagging
// committee's secrets. Parallel work is dispatched to the injected
// executor; pass Executor(1) (or plumb ElectionConfig::threads = 1) for a
// fully serial run — the transcript is identical either way.
class TallyService {
 public:
  TallyService(const ElectionAuthority& authority, const TaggingService& tagging,
               size_t mix_pairs = 2, Executor& executor = Executor::Global(),
               RetryPolicy retry_policy = RetryPolicy(),
               TallyEngine engine = TallyEngine::kDataflow,
               bool revoting = false, bool revote_padding = true);

  // Runs the pipeline over the ledger's ballots and active roster on the
  // dataflow engine.
  // Fails (coded, localized — never a wrong result) when fewer than
  // threshold() authorities deliver valid shares for some ciphertext, or
  // when a mix/tag stage faults; succeeds with any honest-and-live t-subset,
  // naming the excluded members in TallyOutput::excluded_authorities.
  // `metrics`, when non-null, receives wall/busy/occupancy numbers.
  Outcome<TallyOutput> Run(const PublicLedger& ledger, const CandidateList& candidates,
                           const std::set<CompressedRistretto>& authorized_kiosks,
                           Rng& rng, TallyRunMetrics* metrics = nullptr) const;

  const ElectionAuthority& authority() const { return authority_; }
  const TaggingService& tagging() const { return tagging_; }
  size_t mix_pairs() const { return mix_pairs_; }
  Executor& executor() const { return executor_; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  bool revoting() const { return revoting_; }
  bool revote_padding() const { return revote_padding_; }

 private:
  const ElectionAuthority& authority_;
  const TaggingService& tagging_;
  size_t mix_pairs_;
  Executor& executor_;
  RetryPolicy retry_policy_;
  bool revoting_;
  bool revote_padding_;
};

// Validate stage, phase 1 (shared with the universal verifier): parses and
// signature-checks every ballot on L_V in parallel chunks. Entry i of the
// result corresponds to ledger ballot i; nullopt marks a discarded ballot,
// with the reason tallied into `discards` deterministically.
std::vector<std::optional<Ballot>> ValidateBallots(
    const PublicLedger& ledger, const std::set<CompressedRistretto>& authorized_kiosks,
    TallyDiscards* discards, Executor& executor = Executor::Global());

// Dedup stage, phase 2: keeps the *last* valid ballot per credential key
// (re-voting overrides; ledger order is cast order) and returns the
// accepted ballots in first-seen credential order.
std::vector<Ballot> DeduplicateBallots(const std::vector<std::optional<Ballot>>& validated,
                                       TallyDiscards* discards);

// Convenience composition of both phases (tally, verifier, tests).
std::vector<Ballot> ValidateAndDeduplicate(const PublicLedger& ledger,
                                           const std::set<CompressedRistretto>& authorized_kiosks,
                                           TallyDiscards* discards,
                                           Executor& executor = Executor::Global());

}  // namespace votegral

#endif  // SRC_VOTEGRAL_TALLY_H_
