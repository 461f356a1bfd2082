#include "src/votegral/tally.h"

#include <algorithm>

#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/votegral/tally_internal.h"

namespace votegral {

namespace tally_internal {

Status ProbeStageFault(std::string_view point, uint64_t scope, const char* what) {
  const FaultDecision fault = ProbeFaultPoint(point, scope, 0);
  switch (fault.kind) {
    case FaultKind::kNone:
    case FaultKind::kDelay:
      return Status::Ok();
    case FaultKind::kCrash:
      return Status::Error(StatusCode::kUnavailable,
                           std::string(what) + ": crash injected at " + std::string(point));
    case FaultKind::kTimeout:
      return Status::Error(StatusCode::kTimeout,
                           std::string(what) + ": timeout injected at " + std::string(point));
    case FaultKind::kCorrupt:
      return Status::Error(StatusCode::kCorrupted,
                           std::string(what) + ": output integrity check failed at " +
                               std::string(point));
  }
  return Status::Ok();
}

std::span<const ElGamalWire> TaggedWire(const std::vector<TaggingStep>& steps) {
  if (steps.empty() || !steps.back().HasWire()) {
    return {};
  }
  return steps.back().output_wire;
}

void ValidateBallotShard(const PublicLedger& ledger,
                         const std::set<CompressedRistretto>& authorized_kiosks,
                         size_t begin, size_t end,
                         std::vector<std::optional<Ballot>>& validated,
                         std::vector<uint8_t>& outcome) {
  LedgerCursor cursor = ledger.BallotCursor(begin, end);
  LedgerEntryView view;
  for (size_t i = begin; i < end; ++i) {
    Require(cursor.Next(&view), "tally: ballot cursor ended before its shard");
    auto ballot = Ballot::Parse(view.payload);
    if (!ballot.has_value()) {
      outcome[i] = kBallotBadStructure;
      continue;
    }
    if (!CheckBallot(*ballot, authorized_kiosks).ok()) {
      outcome[i] = kBallotBadSignature;
      continue;
    }
    validated[i] = std::move(*ballot);
  }
}

void TallyValidationOutcomes(std::span<const uint8_t> outcome, TallyDiscards* discards) {
  for (uint8_t o : outcome) {
    if (o == kBallotBadStructure) {
      ++discards->invalid_structure;
    } else if (o == kBallotBadSignature) {
      ++discards->invalid_signature;
    }
  }
}

MixItem BallotMixItem(const Ballot& ballot) {
  auto credential_point = RistrettoPoint::Decode(ballot.credential_pk);
  Require(credential_point.has_value(), "tally: validated ballot has bad credential point");
  MixItem item;
  item.cts = {ballot.encrypted_vote, ElGamalTrivialEncrypt(*credential_point)};
  item.EnsureWire();
  return item;
}

void DecryptBatchBuffers::Init(const ElectionAuthority& authority, size_t n,
                               std::vector<std::vector<DecryptionShare>>* shares,
                               std::vector<CompressedRistretto>* encoded) {
  members = authority.size();
  threshold = authority.threshold();
  // Failure capture, only live when a fault plan is armed (nothing can fail
  // otherwise). Reports are written positionally and merged sequentially in
  // FinalizeDecryptBatch, so blame never depends on shard scheduling.
  armed = FaultInjector::Armed();
  shares_out = shares;
  encoded_out = encoded;
  shares_out->assign(n, {});
  encoded_out->assign(n, CompressedRistretto{});
  self_check.assign(n * members, DleqBatchEntry{});
  failed.assign(armed ? n : 0, {});
  short_of_threshold.assign(n, 0);
}

void DecryptShareShardRange(const TallyService& service, const AuthorityClient& client,
                            std::span<const ElGamalCiphertext> cts,
                            std::span<const ElGamalWire> cts_wire, uint64_t epoch,
                            size_t begin, size_t end, Rng& child,
                            DecryptBatchBuffers& buffers) {
  const ElectionAuthority& authority = service.authority();
  const size_t members = buffers.members;
  for (size_t i = begin; i < end; ++i) {
    std::vector<DecryptionShare>& shares = (*buffers.shares_out)[i];
    shares.reserve(members);
    const CompressedRistretto c1_wire =
        cts_wire.empty() ? cts[i].c1.Encode() : ElGamalWireHalf(cts_wire[i], 0);
    const uint64_t ct_key = (epoch << 32) | static_cast<uint64_t>(i);
    for (size_t m = 0; m < members; ++m) {
      ShareRequestReport report;
      Outcome<DecryptionShare> requested =
          client.RequestShare(m, cts[i], child, ct_key, &c1_wire, &report);
      if (!requested.ok()) {
        if (buffers.armed) {
          buffers.failed[i].push_back(std::move(report));
        }
        continue;
      }
      const DecryptionShare& share = *requested;
      DleqBatchEntry entry;
      entry.domain = std::string(kDecryptionShareDomain);
      entry.statement = DleqStatement::MakePairWire(
          RistrettoPoint::Base(), RistrettoPoint::BaseWire(),
          authority.member(m).public_share, authority.member(m).public_share_wire,
          cts[i].c1, c1_wire, share.share, share.share.Encode());
      entry.transcript = share.proof;
      buffers.self_check[i * members + m] = std::move(entry);
      shares.push_back(std::move(*requested));
    }
    if (shares.size() < buffers.threshold) {
      buffers.short_of_threshold[i] = 1;
      continue;
    }
    (*buffers.encoded_out)[i] = authority.CombineShares(cts[i], shares).Encode();
  }
}

Status FinalizeDecryptBatch(const char* what, DecryptBatchBuffers& buffers,
                            std::vector<DleqBatchEntry>* self_check_accum,
                            std::map<size_t, Status>* blame) {
  // Sequential, index-ordered merges keep blame and failure localization
  // deterministic at any thread count.
  for (size_t i = 0; i < buffers.failed.size(); ++i) {
    for (const ShareRequestReport& report : buffers.failed[i]) {
      blame->emplace(report.member_index, report.status);
    }
  }
  if (buffers.armed) {
    // Compact this batch's self-check region: excluded members leave empty
    // positional slots that the release-gate batch verifier must not see.
    buffers.self_check.erase(
        std::remove_if(buffers.self_check.begin(), buffers.self_check.end(),
                       [](const DleqBatchEntry& e) { return e.domain.empty(); }),
        buffers.self_check.end());
  }
  self_check_accum->insert(self_check_accum->end(),
                           std::make_move_iterator(buffers.self_check.begin()),
                           std::make_move_iterator(buffers.self_check.end()));
  Release(buffers.self_check);
  for (size_t i = 0; i < buffers.short_of_threshold.size(); ++i) {
    if (buffers.short_of_threshold[i] != 0) {
      return Status::Error(
          StatusCode::kUnavailable,
          std::string(what) + ": only " + std::to_string((*buffers.shares_out)[i].size()) +
              " of " + std::to_string(buffers.members) + " authority shares for ciphertext " +
              std::to_string(i) + " (threshold " + std::to_string(buffers.threshold) + ")");
    }
  }
  return Status::Ok();
}

Status DecryptBatchWithShares(const TallyService& service, const char* what,
                              std::span<const ElGamalCiphertext> cts, Rng& rng,
                              uint64_t epoch,
                              std::vector<std::vector<DecryptionShare>>* shares_out,
                              std::vector<CompressedRistretto>* encoded_out,
                              std::vector<DleqBatchEntry>* self_check,
                              std::map<size_t, Status>* blame,
                              std::span<const ElGamalWire> cts_wire) {
  const size_t n = cts.size();
  Require(cts_wire.empty() || cts_wire.size() == n, "tally: cts wire size mismatch");
  const AuthorityClient client(service.authority(), service.retry_policy());
  DecryptBatchBuffers buffers;
  buffers.Init(service.authority(), n, shares_out, encoded_out);
  auto shards = Executor::Shards(n, Executor::kRngShards);
  auto seeds = ForkRngSeeds(rng, shards.size());
  service.executor().ParallelForEach(shards.size(), [&](size_t s) {
    ChaChaRng child(seeds[s]);
    DecryptShareShardRange(service, client, cts, cts_wire, epoch, shards[s].first,
                           shards[s].second, child, buffers);
  });
  return FinalizeDecryptBatch(what, buffers, self_check, blame);
}

void JoinTags(TallyPipelineState& state) {
  TallyTranscript& t = state.output.transcript;
  TallyResult& result = state.output.result;
  // Hash-join ballot tags against the roster tag multiset: at most one
  // ballot counts per tag; a tag appearing k times means k voters'
  // registrations point at the same credential (k > 1 only under the
  // delegation extension, Appendix C.3). Sequential by design — the join is
  // a cheap ordered map pass whose output order is part of the transcript.
  for (size_t i = 0; i < t.ballot_tags.size(); ++i) {
    auto it = state.roster_tag_counts.find(t.ballot_tags[i]);
    if (it == state.roster_tag_counts.end()) {
      ++result.discards.unmatched_tag;  // fake credential (or never registered)
      continue;
    }
    if (it->second == 0) {
      ++result.discards.duplicate_tag;  // tag already fully consumed
      continue;
    }
    t.counted_indices.push_back(i);
    t.counted_weights.push_back(it->second);
    it->second = 0;  // consume all matching registrations at once
  }
  Release(state.roster_tag_counts);
}

void CountVotes(const CandidateList& candidates, TallyPipelineState& state) {
  TallyTranscript& t = state.output.transcript;
  TallyResult& result = state.output.result;
  for (size_t c = 0; c < t.counted_indices.size(); ++c) {
    uint64_t weight = t.counted_weights[c];
    auto candidate = candidates.IndexOfEncoding(t.vote_points[c]);
    if (!candidate.has_value()) {
      ++result.discards.invalid_vote;
      continue;
    }
    result.counts[candidates.name(*candidate)] += weight;
    result.counted += weight;
  }
}

void ReleaseGate(TallyPipelineState& state, Rng& rng) {
  // Release gate: all decryption-share proofs produced above must verify as
  // one batch. A failure here is an internal fault, not a verification
  // result, hence Require rather than a Status — corrupted responses never
  // reach this batch (they are rejected on arrival and their members
  // excluded), so a failure here means *we* produced a bad proof.
  Require(BatchVerifyDleq(state.share_self_check, rng).ok(),
          "tally: produced decryption share failed batched self-check");
  Release(state.share_self_check);
}

}  // namespace tally_internal

std::vector<std::optional<Ballot>> ValidateBallots(
    const PublicLedger& ledger, const std::set<CompressedRistretto>& authorized_kiosks,
    TallyDiscards* discards, Executor& executor) {
  Require(discards != nullptr, "tally: discards output required");
  const size_t n = ledger.BallotCount();
  std::vector<std::optional<Ballot>> validated(n);
  // Parse + two Schnorr verifications per ballot: the validate stage's
  // per-ballot hot loop. Each shard streams its ballot range straight off
  // the backing segments through its own cursor (zero-copy views, at most
  // one segment resident per shard), so the stage never materializes the
  // ballot log — the property that lets a file-backed ledger larger than
  // RAM tally in O(segment) memory. Shard boundaries come from
  // Executor::Shards (data-size only) and outcomes are written positionally
  // then tallied sequentially, so discard counts never depend on scheduling
  // or on the storage backend.
  std::vector<uint8_t> outcome(n, tally_internal::kBallotOk);
  auto shards = Executor::Shards(n, Executor::kRngShards);
  executor.ParallelForEach(shards.size(), [&](size_t s) {
    tally_internal::ValidateBallotShard(ledger, authorized_kiosks, shards[s].first,
                                        shards[s].second, validated, outcome);
  });
  tally_internal::TallyValidationOutcomes(outcome, discards);
  return validated;
}

std::vector<Ballot> DeduplicateBallots(const std::vector<std::optional<Ballot>>& validated,
                                       TallyDiscards* discards) {
  Require(discards != nullptr, "tally: discards output required");
  // Keep the *last* valid ballot per credential key (re-voting overrides,
  // matching the JCJ-with-tags dedup rule; ledger order is cast order).
  std::map<CompressedRistretto, Ballot> latest;
  std::map<CompressedRistretto, size_t> first_seen_order;
  size_t order = 0;
  for (const std::optional<Ballot>& ballot : validated) {
    if (!ballot.has_value()) {
      continue;
    }
    auto [it, inserted] = latest.insert_or_assign(ballot->credential_pk, *ballot);
    if (inserted) {
      first_seen_order[ballot->credential_pk] = order++;
    } else {
      ++discards->superseded;
    }
  }

  // Canonical order: first-seen order of each credential (deterministic and
  // recomputable by any auditor).
  std::vector<Ballot> accepted(latest.size());
  for (const auto& [credential, ballot] : latest) {
    accepted[first_seen_order.at(credential)] = ballot;
  }
  return accepted;
}

std::vector<Ballot> ValidateAndDeduplicate(
    const PublicLedger& ledger, const std::set<CompressedRistretto>& authorized_kiosks,
    TallyDiscards* discards, Executor& executor) {
  return DeduplicateBallots(ValidateBallots(ledger, authorized_kiosks, discards, executor),
                            discards);
}

TallyService::TallyService(const ElectionAuthority& authority, const TaggingService& tagging,
                           size_t mix_pairs, Executor& executor, RetryPolicy retry_policy,
                           TallyEngine, bool revoting, bool revote_padding)
    : authority_(authority), tagging_(tagging), mix_pairs_(mix_pairs), executor_(executor),
      retry_policy_(retry_policy), revoting_(revoting), revote_padding_(revote_padding) {}

Outcome<TallyOutput> TallyService::Run(const PublicLedger& ledger,
                                       const CandidateList& candidates,
                                       const std::set<CompressedRistretto>& authorized_kiosks,
                                       Rng& rng, TallyRunMetrics* metrics) const {
  return tally_internal::RunDataflowTally(*this, ledger, candidates, authorized_kiosks, rng,
                                          metrics);
}

}  // namespace votegral
