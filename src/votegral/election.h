// End-to-end election orchestrator: TRIP registration + Votegral voting and
// tallying behind one façade. This is the public API the examples and the
// Fig. 5 benchmarks drive; each method calls the real actors underneath.
#ifndef SRC_VOTEGRAL_ELECTION_H_
#define SRC_VOTEGRAL_ELECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/outcome.h"
#include "src/trip/registrar.h"
#include "src/votegral/tally.h"
#include "src/votegral/verifier.h"

namespace votegral {

// Election configuration.
struct ElectionConfig {
  std::vector<std::string> roster;
  std::vector<std::string> candidates;
  size_t authority_members = 4;
  // 0 = additive n-of-n DKG (the seed configuration; one failed member
  // aborts the tally). t in [1, authority_members] = dealerless Shamir DKG:
  // the tally degrades gracefully, succeeding with any t honest-and-live
  // members and naming the excluded ones.
  size_t authority_threshold = 0;
  size_t tagging_members = 4;
  size_t mix_pairs = 2;  // 4 shufflers, matching the paper's experiments

  // Retry/deadline policy the tally's AuthorityClient uses when collecting
  // decryption shares (simulated time; see docs/ROBUSTNESS.md).
  RetryPolicy retry_policy;

  // Worker threads for the tally pipeline and the universal verifier.
  // 0 = share the process-wide pool (sized from hardware_concurrency);
  // 1 = fully serial (the quickstart escape hatch). The transcript is
  // byte-identical at any setting — this only trades wall-clock time.
  size_t threads = 0;

  // Ledger storage backend: in-memory by default, or the file-backed
  // segmented log (set backend=kFile and a directory). The tally transcript
  // is byte-identical for either backend — this only trades resident memory
  // against segment I/O.
  LedgerStorageConfig storage;

  // Deniable revoting (docs/REVOTING.md): casts post RevoteBallots and the
  // dedup stage becomes the verifiable supersession pipeline. revote_padding
  // adds the cover-envelope dummy groups that make the revealed group-size
  // multiset a pure function of the board size (turn it off only in the
  // security-game control arm — an unpadded board leaks the revote pattern).
  bool revoting = false;
  bool revote_padding = true;
};

// A complete Votegral election instance.
class Election {
 public:
  Election(ElectionConfig config, Rng& rng);

  TripSystem& trip() { return trip_; }
  const CandidateList& candidates() const { return candidates_; }
  PublicLedger& ledger() { return trip_.ledger(); }
  const TaggingService& tagging() const { return tagging_; }

  // Registers `voter_id` in person (1 real + fake_count fakes) and activates
  // all credentials on the given device.
  Outcome<RegisteredVoter> Register(const std::string& voter_id, size_t fake_count, Vsd& vsd,
                                    Rng& rng);

  // Casts a ballot with an activated credential (real or fake — the ballot
  // is accepted either way; only real ones are eventually counted). Under
  // config.revoting the per-credential cast counter auto-increments, so a
  // later Cast with the same credential supersedes the earlier one.
  Status Cast(const ActivatedCredential& credential, const std::string& candidate, Rng& rng);

  // Revote-mode cast with an explicit counter — the coercer model: whoever
  // holds a surrendered credential chooses the counter themselves and cannot
  // observe the owner's private casts. Fails outside revote mode.
  Status CastRevote(const ActivatedCredential& credential, const std::string& candidate,
                    uint64_t counter, Rng& rng);

  // Runs the tally pipeline, producing the result and its transcript.
  // Throws ProtocolError (carrying the coded reason) if the tally cannot
  // complete — the convenience form for callers that treat failure as fatal.
  TallyOutput Tally(Rng& rng) const;

  // Like Tally, but failure is a value: fewer than threshold live
  // authorities, or a faulted mix/tag stage, yields a coded localized
  // Status instead of a throw. Fault-tolerance tests and degradation-aware
  // callers use this form.
  Outcome<TallyOutput> TryTally(Rng& rng) const;

  // Universal verification of a published tally against the ledger.
  Status Verify(const TallyOutput& output) const;

  // Public verifier parameters (what an auditor downloads at setup).
  VerifierParams verifier_params() const;

  // The executor tallying and verification run on (the config's dedicated
  // pool, or the global one).
  Executor& executor() const;

 private:
  std::optional<size_t> CandidateIndex(const std::string& candidate) const;

  ElectionConfig config_;
  TripSystem trip_;
  TaggingService tagging_;
  CandidateList candidates_;
  std::unique_ptr<Executor> dedicated_executor_;  // when config.threads != 0
  // Revote mode: next cast counter per credential (the voter-side count a
  // real device would keep).
  std::map<CompressedRistretto, uint64_t> revote_counters_;
};

}  // namespace votegral

#endif  // SRC_VOTEGRAL_ELECTION_H_
