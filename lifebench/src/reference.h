// The independent result check. The generator's cast log is the reference:
// from it alone (never from anything the program outputs) this derives the
// per-candidate counts and the superseded / unmatched_tag / duplicate_tag
// discards the tally must publish, then compares them with the TallyResult.
//
//  * Plaintext rule: the last ballot in ledger order wins for each real
//    credential; earlier ones are superseded; fake credentials never count.
//  * Revote rule: per credential the highest counter wins, a tied maximum
//    drops the whole group (duplicate_tag), fakes never count. The tally
//    also pads the board with dummy groups, whose openings it publishes.
//    The check holds them to the cover envelope as docs/REVOTING.md states
//    it, written out here (not the program's padding planner): with the
//    reference's own group-size census, every cover class must reach its
//    target and the padded board must stay within the quasilinear bound.
//    Each checked dummy group then adds its size-1 superseded members and
//    one unmatched tag to the expected discards.
//
// Also here: the transcript digest that fingerprints a run.
#ifndef LIFEBENCH_SRC_REFERENCE_H_
#define LIFEBENCH_SRC_REFERENCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lifebench/src/workloads.h"
#include "src/votegral/tally.h"

namespace lifebench {

struct ExpectedResult {
  std::map<std::string, size_t> counts;  // every candidate, zeros included
  size_t counted = 0;
  size_t superseded = 0;
  size_t unmatched_tag = 0;
  size_t duplicate_tag = 0;
  size_t ballots = 0;  // casts that reached the ledger
  bool revoting = false;
  // Revote mode: real groups (one per credential that cast) by size.
  std::map<uint64_t, size_t> group_sizes;
};

// `posted[i]` says whether plan.casts[i] reached the ledger (a cast whose
// voter failed to register or activate is never posted).
ExpectedResult ComputeExpected(const ElectionPlan& plan, bool revoting,
                               const std::vector<uint8_t>& posted);

// One line per disagreement between the reference and the published result
// (and, in revote mode, the published padding); empty when they agree.
std::vector<std::string> CompareResult(const ExpectedResult& expected,
                                       const votegral::TallyOutput& output);

// SHA-256 over the transcript fields a scheduling or randomness change could
// move: mix inputs/outputs and reveals, tagging outputs and proofs,
// decryption shares and proofs, tags, vote points, the revote section and
// the published counts.
std::array<uint8_t, 32> TranscriptDigest(const votegral::TallyOutput& output);

std::string Hex(const std::array<uint8_t, 32>& digest);

}  // namespace lifebench

#endif  // LIFEBENCH_SRC_REFERENCE_H_
