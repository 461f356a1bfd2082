// The tally engine: the validate -> dedup -> mix -> tag -> decrypt-tags ->
// join -> decrypt-votes -> release-gate pipeline scheduled as a
// chunk-granular task graph.
//
// Scheduling shape (one flow per mixed list, ballots and roster, running
// concurrently):
//
//   validate[s] ─┐ (wave 1: ballots stream off per-shard LedgerCursors)
//                ├─ dedup ── mix-input[s] ── shuffle[layer][s] ── ... ──
//                                            tag[member][s] ── decrypt[s]
//
// A shuffle layer is all-to-all (output j reads input source_[j]), so each
// layer joins on the previous one; everywhere else dependencies are per
// shard: tagging member 0 starts on shard k the moment the final shuffle
// layer finishes shard k, member m+1 follows member m shard by shard, and
// share decryption follows the last tagging member the same way. The ballot
// and roster flows never wait for each other before the (sequential) join.
//
// Determinism (the reproducibility contract, made normative here): every
// randomness-consuming node gets its forked DRBG seed assigned at
// graph-BUILD time, drawn from the parent stream in one canonical stage
// order (cascade layers, then tagging members, then decrypt batches —
// ballots before roster for mixing/tagging, roster before ballots for
// decryption, then votes, then the release gate); shard boundaries come from
// Executor::Shards (data-size only); nodes commit results positionally.
// Scheduling therefore decides only *when* a node runs, never what it
// computes — transcripts are byte-identical at every thread count, which
// tests/test_parallel_tally.cpp and tests/test_revote.cpp pin against golden
// digests.
//
// Failure order: the four stage-level fault probes are pure PRF decisions,
// evaluated at build time in stage order (stopping at the first failure, so
// injection counts are deterministic); decrypt shortfalls are detected in
// the sequential finalize order (roster tags, ballot tags, votes). A failed
// run reports the same coded status at any thread count.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/votegral/tally_internal.h"

namespace votegral {
namespace tally_internal {
namespace {

enum StageIdx : size_t {
  kSValidate = 0,
  kSDedup,
  kSMix,
  kSTag,
  kSDecryptTags,
  kSJoin,
  kSDecryptVotes,
  kSReleaseGate,
  kNumStages,
};

constexpr const char* kStageNames[kNumStages] = {
    "validate", "dedup",         "mix",  "tag",
    "decrypt-tags", "join", "decrypt-votes", "release-gate",
};

// Per-stage busy-time accumulators (relaxed: summed once after Wait).
struct BusyClock {
  std::array<std::atomic<uint64_t>, kNumStages> nanos{};

  template <typename F>
  void Timed(size_t stage, F&& f) {
    const auto start = std::chrono::steady_clock::now();
    f();
    nanos[stage].fetch_add(
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count()),
        std::memory_order_relaxed);
  }
};

Status WrapStage(const char* stage, const Status& status) {
  return Status::Error(status.code(), std::string(stage) + " stage: " + status.reason());
}

// One mix -> tag -> decrypt chain (ballots or roster): the pre-drawn
// randomness, the layer servers, and the working buffers its graph nodes
// write into. Everything here is sized and seeded at build time; nodes only
// fill positional slots.
struct ChainFlow {
  size_t n = 0;
  std::vector<std::pair<size_t, size_t>> shards;  // Shards(n, kRngShards)

  // Mix cascade: layers[2p] / layers[2p+1] are pair p's A/B servers
  // (permutations drawn at build); proof->pairs pre-sized with mid/out
  // batches; h[p] is the chain hash entering pair p (h[0] = input hash).
  MixBatch* input = nullptr;
  MixProof* proof = nullptr;
  std::vector<MixServer> layers;
  std::vector<std::vector<std::array<uint8_t, 32>>> layer_seeds;  // [layer][shard]
  std::vector<std::array<uint8_t, 32>> h;

  // Tag chain over one column of the final mix output.
  size_t column = 0;
  std::vector<TaggingStep>* steps = nullptr;  // pre-sized, one per member
  std::vector<std::vector<std::array<uint8_t, 32>>> tag_seeds;  // [member][shard]
  std::vector<CompressedRistretto> commitment_wires;
  std::vector<ElGamalCiphertext> tag_input;  // extracted column (per-shard)
  std::vector<ElGamalWire> tag_input_wire;

  // Share decryption of the fully tagged list.
  uint64_t epoch = 0;
  std::vector<std::array<uint8_t, 32>> decrypt_seeds;
  DecryptBatchBuffers buffers;
};

// Draws one chain's cascade randomness in canonical order: per pair, layer
// A's permutation then its shard seeds, then layer B's.
void DrawCascadeRandomness(ChainFlow& flow, size_t pairs, Rng& rng) {
  flow.layers.resize(2 * pairs);
  flow.layer_seeds.resize(2 * pairs);
  flow.h.resize(pairs + 1);
  flow.proof->pairs.resize(pairs);
  for (size_t p = 0; p < pairs; ++p) {
    flow.proof->pairs[p].mid.resize(flow.n);
    flow.proof->pairs[p].out.resize(flow.n);
    for (size_t half = 0; half < 2; ++half) {
      const size_t l = 2 * p + half;
      flow.layers[l].Prepare(flow.n, rng);
      flow.layer_seeds[l] = ForkRngSeeds(rng, flow.shards.size());
    }
  }
}

// Draws one chain's tagging randomness: per member, the shard seeds.
void DrawTagRandomness(ChainFlow& flow, const TaggingService& tagging, Rng& rng) {
  const size_t members = tagging.size();
  flow.tag_seeds.resize(members);
  flow.commitment_wires.resize(members);
  flow.steps->clear();
  flow.steps->reserve(members);
  for (size_t m = 0; m < members; ++m) {
    flow.tag_seeds[m] = ForkRngSeeds(rng, flow.shards.size());
    flow.commitment_wires[m] = tagging.commitments()[m].Encode();
    flow.steps->push_back(tagging.PrepareStep(m, flow.n));
  }
  flow.tag_input.resize(flow.n);
  flow.tag_input_wire.resize(flow.n);
}

// Submits one chain's wave-2 nodes: mix-input build, the shuffle layers,
// pair finalization, the tagging chain, and share decryption. `build_item`
// fills mix-input slot i. Returns nothing to wait on — callers Wait() on
// the whole graph.
void SubmitChainNodes(TaskGraph& graph, const TallyService& service, ChainFlow& flow,
                      const AuthorityClient& client, BusyClock& clock,
                      const std::function<void(size_t)>& build_item) {
  const RistrettoPoint& pk = service.authority().public_key();
  const size_t pairs = service.mix_pairs();
  const size_t members = service.tagging().size();
  const size_t shard_count = flow.shards.size();

  // Mix input: positional item builds, then the incoming chain hash.
  std::vector<TaskGraph::NodeId> input_nodes;
  input_nodes.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    const auto [begin, end] = flow.shards[s];
    // build_item is copied per node: the caller's std::function is a
    // temporary that does not outlive this call, but the nodes do.
    input_nodes.push_back(graph.Submit([&, build_item, begin, end] {
      clock.Timed(kSMix, [&] {
        for (size_t i = begin; i < end; ++i) {
          build_item(i);
        }
      });
    }));
  }
  const TaskGraph::NodeId input_done =
      graph.Submit([] {}, std::span<const TaskGraph::NodeId>(input_nodes));
  const TaskGraph::NodeId input_hash = graph.Submit(
      [&] { clock.Timed(kSMix, [&] { flow.h[0] = HashMixBatch(*flow.input); }); },
      {input_done});

  // Shuffle layers: shard nodes joined per layer (a shuffle is all-to-all);
  // pair p finalizes once its B layer and the previous pair's challenge
  // chain are done. The last layer's shard nodes are remembered so the tag
  // chain can start per shard without waiting for the layer join.
  TaskGraph::NodeId prev_layer_done = input_done;
  TaskGraph::NodeId prev_finalize = input_hash;
  std::vector<TaskGraph::NodeId> last_layer_nodes;
  for (size_t p = 0; p < pairs; ++p) {
    RpcPairProof& pair = flow.proof->pairs[p];
    for (size_t half = 0; half < 2; ++half) {
      const size_t l = 2 * p + half;
      const MixBatch* in_batch = half == 0
                                     ? (p == 0 ? flow.input : &flow.proof->pairs[p - 1].out)
                                     : &pair.mid;
      MixBatch* out_batch = half == 0 ? &pair.mid : &pair.out;
      std::vector<TaskGraph::NodeId> layer_nodes;
      layer_nodes.reserve(shard_count);
      for (size_t s = 0; s < shard_count; ++s) {
        const auto [begin, end] = flow.shards[s];
        layer_nodes.push_back(graph.Submit(
            [&, l, s, begin, end, in_batch, out_batch] {
              clock.Timed(kSMix, [&] {
                ChaChaRng child(flow.layer_seeds[l][s]);
                flow.layers[l].ShuffleShardRange(*in_batch, pk, begin, end, child,
                                                 *out_batch);
              });
            },
            {prev_layer_done}));
      }
      prev_layer_done =
          graph.Submit([] {}, std::span<const TaskGraph::NodeId>(layer_nodes));
      if (p + 1 == pairs && half == 1) {
        last_layer_nodes = std::move(layer_nodes);
      }
    }
    prev_finalize = graph.Submit(
        [&, p] {
          clock.Timed(kSMix, [&] {
            FinishRpcPair(flow.layers[2 * p], flow.layers[2 * p + 1], flow.h[p], p,
                          &flow.proof->pairs[p], &flow.h[p + 1]);
          });
        },
        {prev_layer_done, prev_finalize});
  }

  // Tag chain, chunk-granular: member 0's shard node extracts its column
  // slice from the final shuffle output (points + 64-byte wire slices) and
  // applies the member; member m+1 follows member m shard by shard.
  std::vector<TaskGraph::NodeId> prev_member(shard_count);
  const MixBatch& final_out = flow.proof->pairs[pairs - 1].out;
  for (size_t s = 0; s < shard_count; ++s) {
    const auto [begin, end] = flow.shards[s];
    prev_member[s] = graph.Submit(
        [&, s, begin, end] {
          clock.Timed(kSTag, [&] {
            for (size_t i = begin; i < end; ++i) {
              const MixItem& item = final_out[i];
              flow.tag_input[i] = item.cts.at(flow.column);
              std::copy(item.wire.begin() + static_cast<ptrdiff_t>(64 * flow.column),
                        item.wire.begin() + static_cast<ptrdiff_t>(64 * (flow.column + 1)),
                        flow.tag_input_wire[i].begin());
            }
            ChaChaRng child(flow.tag_seeds[0][s]);
            service.tagging().ApplyShard(0, flow.tag_input, flow.tag_input_wire,
                                         flow.commitment_wires[0], s, child,
                                         (*flow.steps)[0]);
          });
        },
        {last_layer_nodes[s]});
  }
  for (size_t m = 1; m < members; ++m) {
    for (size_t s = 0; s < shard_count; ++s) {
      prev_member[s] = graph.Submit(
          [&, m, s] {
            clock.Timed(kSTag, [&] {
              ChaChaRng child(flow.tag_seeds[m][s]);
              service.tagging().ApplyShard(m, (*flow.steps)[m - 1].output,
                                           (*flow.steps)[m - 1].output_wire,
                                           flow.commitment_wires[m], s, child,
                                           (*flow.steps)[m]);
            });
          },
          {prev_member[s]});
    }
  }

  // Share decryption follows the last tagging member, shard by shard.
  for (size_t s = 0; s < shard_count; ++s) {
    const auto [begin, end] = flow.shards[s];
    graph.Submit(
        [&, s, begin, end] {
          clock.Timed(kSDecryptTags, [&] {
            const TaggingStep& last = flow.steps->back();
            ChaChaRng child(flow.decrypt_seeds[s]);
            DecryptShareShardRange(service, client, last.output, last.output_wire,
                                   flow.epoch, begin, end, child, flow.buffers);
          });
        },
        {prev_member[s]});
  }
}

}  // namespace

Outcome<TallyOutput> RunDataflowTally(const TallyService& service, const PublicLedger& ledger,
                                      const CandidateList& candidates,
                                      const std::set<CompressedRistretto>& authorized_kiosks,
                                      Rng& rng, TallyRunMetrics* metrics) {
  Executor& executor = service.executor();
  Executor::Scope scope(executor);  // nested crypto kernels follow this pool
  const auto run_start = std::chrono::steady_clock::now();
  ExecutorStats stats_start;
  if (metrics != nullptr) {
    stats_start = executor.Stats();
  }
  BusyClock clock;

  TallyPipelineState state;
  TallyTranscript& t = state.output.transcript;
  for (size_t i = 0; i < candidates.size(); ++i) {
    state.output.result.counts[candidates.name(i)] = 0;
  }

  auto finish = [&](Outcome<TallyOutput> outcome) {
    if (metrics != nullptr) {
      *metrics = TallyRunMetrics{};
      metrics->threads = executor.threads();
      metrics->executor_start = stats_start;
      metrics->executor_end = executor.Stats();
      metrics->wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
              .count();
      for (size_t i = 0; i < kNumStages; ++i) {
        metrics->stages.push_back(TallyStageBusy{
            kStageNames[i],
            static_cast<double>(clock.nanos[i].load(std::memory_order_relaxed)) * 1e-9});
      }
    }
    return outcome;
  };

  TaskGraph graph(executor);

  // ---- Wave 1: validate (ballots stream off per-shard ledger cursors). ----
  const size_t ledger_n = ledger.BallotCount();
  std::vector<uint8_t> validate_outcome(ledger_n, kBallotOk);
  const auto validate_shards = Executor::Shards(ledger_n, Executor::kRngShards);
  if (service.revoting()) {
    state.validated_revotes.assign(ledger_n, std::nullopt);
    const RistrettoPoint& authority_pk = service.authority().public_key();
    for (const auto& [begin, end] : validate_shards) {
      graph.Submit([&, begin = begin, end = end] {
        clock.Timed(kSValidate, [&] {
          RevoteValidateShard(ledger, authority_pk, begin, end, state.validated_revotes,
                              validate_outcome);
        });
      });
    }
  } else {
    state.validated_ballots.assign(ledger_n, std::nullopt);
    for (const auto& [begin, end] : validate_shards) {
      graph.Submit([&, begin = begin, end = end] {
        clock.Timed(kSValidate, [&] {
          ValidateBallotShard(ledger, authorized_kiosks, begin, end, state.validated_ballots,
                              validate_outcome);
        });
      });
    }
  }
  graph.Wait();
  clock.Timed(kSDedup,
              [&] { TallyValidationOutcomes(validate_outcome, &state.output.result.discards); });
  if (service.revoting()) {
    // The whole supersession pipeline runs at the dedup position as one
    // call (internally sharded on the same executor), drawing from the
    // parent stream before any mix randomness.
    Status dedup_status = Status::Ok();
    clock.Timed(kSDedup, [&] { dedup_status = RunRevoteDedup(service, rng, state); });
    if (!dedup_status.ok()) {
      return finish(Outcome<TallyOutput>::Fail(WrapStage("dedup", dedup_status)));
    }
  } else {
    if (Status fault = ProbeStageFault(faults::kTallyDedup, 0, "dedup"); !fault.ok()) {
      return finish(Outcome<TallyOutput>::Fail(WrapStage("dedup", fault)));
    }
    clock.Timed(kSDedup, [&] {
      t.accepted_ballots =
          DeduplicateBallots(state.validated_ballots, &state.output.result.discards);
      Release(state.validated_ballots);
    });
  }

  // The roster is rng-free ledger state: fetching it before the mix draws
  // is transcript-neutral.
  const std::vector<RegistrationRecord> roster = ledger.ActiveRegistrations();

  // ---- Build-time randomness + fault probes, in stage order. ----
  Require(service.mix_pairs() >= 1, "mixnet: need at least one pair");

  ChainFlow ballots;
  ballots.n = service.revoting() ? state.revote_kept.size() : t.accepted_ballots.size();
  ballots.shards = Executor::Shards(ballots.n, Executor::kRngShards);
  ballots.input = &t.ballot_mix_input;
  ballots.proof = &t.ballot_mix_proof;
  ballots.column = 1;
  ballots.steps = &t.ballot_tag_steps;
  ballots.epoch = kEpochBallotTags;

  ChainFlow roster_flow;
  roster_flow.n = roster.size();
  roster_flow.shards = Executor::Shards(roster_flow.n, Executor::kRngShards);
  roster_flow.input = &t.roster_mix_input;
  roster_flow.proof = &t.roster_mix_proof;
  roster_flow.column = 0;
  roster_flow.steps = &t.roster_tag_steps;
  roster_flow.epoch = kEpochRosterTags;

  // The probes are the only fault points between the draws, and their PRF
  // decisions do not depend on where they are evaluated.
  if (Status fault = ProbeStageFault(faults::kMixShuffle, 0, "ballot mix"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("mix", fault)));
  }
  DrawCascadeRandomness(ballots, service.mix_pairs(), rng);
  if (Status fault = ProbeStageFault(faults::kMixShuffle, 1, "roster mix"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("mix", fault)));
  }
  DrawCascadeRandomness(roster_flow, service.mix_pairs(), rng);
  if (Status fault = ProbeStageFault(faults::kTagApply, 0, "ballot tagging"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("tag", fault)));
  }
  DrawTagRandomness(ballots, service.tagging(), rng);
  if (Status fault = ProbeStageFault(faults::kTagApply, 1, "roster tagging"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("tag", fault)));
  }
  DrawTagRandomness(roster_flow, service.tagging(), rng);
  // Decrypt-tags seeds: roster batch first, then ballots.
  roster_flow.decrypt_seeds = ForkRngSeeds(rng, roster_flow.shards.size());
  ballots.decrypt_seeds = ForkRngSeeds(rng, ballots.shards.size());

  t.ballot_mix_input.resize(ballots.n);
  t.roster_mix_input.resize(roster_flow.n);
  roster_flow.buffers.Init(service.authority(), roster_flow.n, &t.roster_tag_shares,
                           &t.roster_tags);
  ballots.buffers.Init(service.authority(), ballots.n, &t.ballot_tag_shares,
                       &t.ballot_tags);
  const AuthorityClient client(service.authority(), service.retry_policy());

  // ---- Wave 2: both chains, chunk-granular, fully concurrent. ----
  SubmitChainNodes(graph, service, ballots, client, clock, [&](size_t i) {
    if (service.revoting()) {
      t.ballot_mix_input[i] = std::move(state.revote_kept[i]);
    } else {
      t.ballot_mix_input[i] = BallotMixItem(t.accepted_ballots[i]);
    }
  });
  SubmitChainNodes(graph, service, roster_flow, client, clock, [&](size_t i) {
    MixItem item;
    item.cts = {roster[i].public_credential};
    item.EnsureWire();
    t.roster_mix_input[i] = std::move(item);
  });
  graph.Wait();

  // Publish the final mixed batches, then close the decrypt batches in
  // sequential order.
  clock.Timed(kSMix, [&] {
    t.ballot_mix_output = ballots.proof->pairs.back().out;
    t.roster_mix_output = roster_flow.proof->pairs.back().out;
  });
  Release(state.revote_kept);
  Status status = Status::Ok();
  clock.Timed(kSDecryptTags, [&] {
    status = FinalizeDecryptBatch("roster tags", roster_flow.buffers,
                                  &state.share_self_check, &state.authority_blame);
  });
  if (!status.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("decrypt-tags", status)));
  }
  for (const CompressedRistretto& tag : t.roster_tags) {
    state.roster_tag_counts[tag] += 1;
  }
  clock.Timed(kSDecryptTags, [&] {
    status = FinalizeDecryptBatch("ballot tags", ballots.buffers, &state.share_self_check,
                                  &state.authority_blame);
  });
  if (!status.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("decrypt-tags", status)));
  }

  // ---- Join (sequential: its output order is part of the transcript). ----
  clock.Timed(kSJoin, [&] { JoinTags(state); });

  // ---- Wave 3: decrypt the counted votes. ----
  std::vector<ElGamalCiphertext> counted_votes;
  std::vector<ElGamalWire> counted_votes_wire;
  clock.Timed(kSDecryptVotes, [&] {
    counted_votes.reserve(t.counted_indices.size());
    for (uint64_t index : t.counted_indices) {
      counted_votes.push_back(t.ballot_mix_output[index].cts.at(0));
    }
    std::vector<ElGamalWire> counted_wire = BatchColumnWire(t.ballot_mix_output, 0);
    if (counted_wire.size() == t.ballot_mix_output.size()) {
      counted_votes_wire.reserve(t.counted_indices.size());
      for (uint64_t index : t.counted_indices) {
        counted_votes_wire.push_back(counted_wire[index]);
      }
    }
  });
  const auto vote_shards = Executor::Shards(counted_votes.size(), Executor::kRngShards);
  const auto vote_seeds = ForkRngSeeds(rng, vote_shards.size());
  DecryptBatchBuffers vote_buffers;
  vote_buffers.Init(service.authority(), counted_votes.size(), &t.vote_shares,
                    &t.vote_points);
  const AuthorityClient vote_client(service.authority(), service.retry_policy());
  for (size_t s = 0; s < vote_shards.size(); ++s) {
    const auto [begin, end] = vote_shards[s];
    graph.Submit([&, s, begin, end] {
      clock.Timed(kSDecryptVotes, [&] {
        ChaChaRng child(vote_seeds[s]);
        DecryptShareShardRange(service, vote_client, counted_votes, counted_votes_wire,
                               kEpochVotes, begin, end, child, vote_buffers);
      });
    });
  }
  graph.Wait();
  clock.Timed(kSDecryptVotes, [&] {
    status = FinalizeDecryptBatch("votes", vote_buffers, &state.share_self_check,
                                  &state.authority_blame);
  });
  if (!status.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("decrypt-votes", status)));
  }
  clock.Timed(kSDecryptVotes, [&] { CountVotes(candidates, state); });

  // ---- Release gate (consumes the parent stream last). ----
  clock.Timed(kSReleaseGate, [&] { ReleaseGate(state, rng); });

  for (const auto& [member, blame_status] : state.authority_blame) {
    state.output.excluded_authorities.push_back(AuthorityBlame{member, blame_status});
  }
  return finish(Outcome<TallyOutput>::Ok(std::move(state.output)));
}

}  // namespace tally_internal
}  // namespace votegral
