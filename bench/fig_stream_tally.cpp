// Streaming large-N tally: the chunk-granular dataflow engine over a
// file-backed segmented ledger, at election scale.
//
// What this measures (and the paper property it backs):
//  * End-to-end tally wall clock at N ballots with ballots *streamed* off a
//    file-backed ledger — peak ledger-resident payload memory must stay
//    within (threads+2)·(2·segment + 64 KiB), i.e. O(threads × segment), not
//    O(N) (the storage-backend contract of the ledger redesign; "1M ballots
//    without 1M ballots of RAM").
//  * Per-stage occupancy of the dataflow scheduler: busy/(wall*threads) per
//    stage, showing stage overlap (tag shards run while mix shards of the
//    other chain are still in flight).
//  * Thread-sweep speedups, with the transcript-identity check that makes
//    the sweep meaningful (same bytes at every thread count). One untimed
//    warm-up tally on a small separate fixture runs first, so the first
//    timed row does not pay the process's one-time costs (precomputed
//    tables, allocator growth).
//  * Work-stealing executor counters (tasks, steals, queue depth) per run.
//
// The ballot corpus is forged directly (one synthetic kiosk, per-voter
// credential keys, ballots via the real MakeBallot) rather than through the
// full TRIP registration ceremony: registration costs ~4 signatures + 2
// encryptions per voter and would dominate setup at 10^5..10^6 ballots
// without touching a single tally code path. The tally sees exactly what a
// real election produces: valid kiosk-certified ballots on L_V and active
// registration records on L_R.
//
// Scale knobs: --ballots N (default 2^17; VOTEGRAL_BENCH_BALLOTS env works
// too), --threads 1,2,4 (default 1,2,4,8), --segment E (entries per sealed
// segment, default 1024). Emits BENCH_stream_tally.json next to the model
// curves for VoteAgain / SwissPost at the same N for context.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/baselines/swisspost.h"
#include "src/baselines/voteagain.h"
#include "src/common/clock.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/ledger/subledgers.h"
#include "src/sim/pipeline.h"
#include "src/trip/messages.h"
#include "src/trip/vsd.h"
#include "src/votegral/ballot.h"
#include "src/votegral/tally.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

struct Options {
  size_t ballots = size_t{1} << 17;  // 2^17 = 131072
  std::vector<size_t> threads = {1, 2, 4, 8};
  size_t segment_entries = 1024;
  std::string out = "BENCH_stream_tally.json";
};

std::vector<size_t> ParseThreadList(const char* arg) {
  std::vector<size_t> threads;
  for (const char* p = arg; *p != '\0';) {
    char* end = nullptr;
    long value = std::strtol(p, &end, 10);
    if (end == p) {
      break;
    }
    if (value > 0) {
      threads.push_back(static_cast<size_t>(value));
    }
    p = (*end == ',') ? end + 1 : end;
  }
  return threads;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  if (const char* env = std::getenv("VOTEGRAL_BENCH_BALLOTS")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      options.ballots = static_cast<size_t>(parsed);
    }
  }
  if (const char* env = std::getenv("VOTEGRAL_BENCH_THREADS")) {
    auto parsed = ParseThreadList(env);
    if (!parsed.empty()) {
      options.threads = parsed;
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    auto next = [&]() -> const char* {
      Require(i + 1 < argc, "fig_stream_tally: flag needs a value");
      return argv[++i];
    };
    if (arg == "--ballots") {
      options.ballots = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--threads") {
      options.threads = ParseThreadList(next());
    } else if (arg == "--segment") {
      options.segment_entries = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--out") {
      options.out = next();
    } else {
      std::fprintf(stderr,
                   "usage: fig_stream_tally [--ballots N] [--threads 1,2,4] "
                   "[--segment E] [--out FILE]\n");
      std::exit(2);
    }
  }
  Require(options.ballots > 0 && !options.threads.empty(),
          "fig_stream_tally: need ballots and a thread list");
  return options;
}

// Forges the election corpus straight onto a file-backed PublicLedger: one
// authorized kiosk, one credential + registration record + ballot per voter.
// Everything the tally validates (kiosk cert, credential signature, roster
// eligibility, c_pc <-> c_pk tag join) is real; only the registration
// *ceremony* (envelopes, activation ZKPs) is skipped.
struct Fixture {
  PublicLedger ledger;
  ElectionAuthority authority;
  TaggingService tagging;
  CandidateList candidates;
  std::set<CompressedRistretto> authorized_kiosks;
  double ingest_seconds = 0.0;
  uint64_t ledger_bytes = 0;  // serialized ballot payload bytes appended

  Fixture(const Options& options, const std::string& dir, Rng& rng)
      : ledger(MakeStorage(options, dir)),
        authority(ElectionAuthority::Create(4, rng)),
        tagging(TaggingService::Create(4, rng)),
        candidates({"Alpha", "Beta", "Gamma"}) {
    SchnorrKeyPair kiosk = SchnorrKeyPair::Generate(rng);
    authorized_kiosks.insert(kiosk.public_bytes());

    WallTimer timer;
    for (size_t i = 0; i < options.ballots; ++i) {
      const std::string voter_id = "voter-" + std::to_string(i);
      ledger.AddEligibleVoter(voter_id);

      SchnorrKeyPair credential = SchnorrKeyPair::Generate(rng);
      ActivatedCredential activated;
      activated.voter_id = voter_id;
      activated.credential_sk = credential.secret();
      activated.credential_pk = credential.public_bytes();
      activated.public_credential =
          ElGamalEncrypt(authority.public_key(), credential.public_point(), rng);
      activated.kiosk_pk = kiosk.public_bytes();
      activated.challenge_response_hash.fill(0);
      activated.kiosk_response_sig = kiosk.Sign(
          ResponseSegment::SignedPayload(activated.credential_pk,
                                         activated.challenge_response_hash),
          rng);

      RegistrationRecord record;
      record.voter_id = voter_id;
      record.public_credential = activated.public_credential;
      record.kiosk_pk = activated.kiosk_pk;
      Require(ledger.PostRegistration(record).ok(),
              "fig_stream_tally: registration rejected");

      Ballot ballot = MakeBallot(activated, candidates, i % candidates.size(),
                                 authority.public_key(), rng);
      Bytes payload = ballot.Serialize();
      ledger_bytes += payload.size();
      ledger.PostBallot(std::move(payload));
    }
    ingest_seconds = timer.Seconds();
  }

  static LedgerStorageConfig MakeStorage(const Options& options,
                                         const std::string& dir) {
    LedgerStorageConfig storage;
    storage.backend = LedgerStorageConfig::Backend::kFile;
    storage.directory = dir;
    storage.segment_entries = options.segment_entries;
    return storage;
  }

  const FileLedgerStore* ballot_store() const {
    return dynamic_cast<const FileLedgerStore*>(&ledger.ballot_log().store());
  }
};

// Scheduling-sensitive transcript digest (forked-DRBG outputs included), the
// cross-thread-count identity check of the sweep.
std::array<uint8_t, 32> Digest(const TallyOutput& output) {
  Sha256 h;
  auto hash_batch = [&](const MixBatch& batch) {
    for (const MixItem& item : batch) {
      for (const ElGamalCiphertext& ct : item.cts) h.Update(ct.Serialize());
      h.Update(item.wire);
    }
  };
  const TallyTranscript& t = output.transcript;
  hash_batch(t.ballot_mix_output);
  hash_batch(t.roster_mix_output);
  for (const MixProof* proof : {&t.ballot_mix_proof, &t.roster_mix_proof}) {
    for (const RpcPairProof& pair : proof->pairs) {
      for (const RpcReveal& reveal : pair.reveals) {
        for (const Scalar& r : reveal.randomness) h.Update(r.ToBytes());
      }
    }
  }
  for (const auto* steps : {&t.ballot_tag_steps, &t.roster_tag_steps}) {
    for (const TaggingStep& step : *steps) {
      for (const DleqTranscript& proof : step.proofs) h.Update(proof.Serialize());
    }
  }
  for (const auto* shares :
       {&t.ballot_tag_shares, &t.roster_tag_shares, &t.vote_shares}) {
    for (const auto& per_ct : *shares) {
      for (const DecryptionShare& share : per_ct) {
        h.Update(share.share.Encode());
        h.Update(share.proof.Serialize());
      }
    }
  }
  for (const auto& tag : t.ballot_tags) h.Update(tag);
  for (const auto& tag : t.roster_tags) h.Update(tag);
  for (uint64_t v : t.counted_indices) {
    uint8_t buf[8];
    StoreLe64(buf, v);
    h.Update(buf);
  }
  return h.Finalize();
}

struct RunRow {
  size_t threads = 0;
  double tally_s = 0.0;
  TallyRunMetrics metrics;
  std::array<uint8_t, 32> digest{};
  uint64_t peak_pinned_bytes = 0;  // over this run alone
};

RunRow RunOnce(const Fixture& fixture, size_t threads) {
  RunRow row;
  row.threads = threads;
  Executor executor(threads);
  TallyService service(fixture.authority, fixture.tagging, /*mix_pairs=*/2, executor);
  // Same stream every run: the sweep's transcripts must match byte for byte.
  ChaChaRng tally_rng(0x57E1ABAD);
  WallTimer timer;
  TallyOutput output = std::move(*service.Run(
      fixture.ledger, fixture.candidates, fixture.authorized_kiosks, tally_rng,
      &row.metrics));
  row.tally_s = timer.Seconds();
  row.digest = Digest(output);
  Require(output.result.counted == fixture.ledger.BallotCount(),
          "fig_stream_tally: every forged ballot must count");
  return row;
}

void Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);

  const fs::path dir =
      fs::temp_directory_path() /
      ("votegral-stream-tally-" + std::to_string(static_cast<unsigned>(getpid())));
  fs::remove_all(dir);

  std::printf("Streaming tally bench — forging %zu ballots onto %s "
              "(segment=%zu entries)...\n",
              options.ballots, dir.c_str(), options.segment_entries);
  ChaChaRng rng(0x57E1AB);
  Fixture fixture(options, dir.string(), rng);
  const FileLedgerStore* store = fixture.ballot_store();
  Require(store != nullptr, "fig_stream_tally: expected the file backend");
  const uint64_t ingest_peak = store->PeakPinnedBytes();
  std::printf("  ingest %.1fs; ballot log: %llu entries, %llu segments, "
              "%.1f MiB payload\n",
              fixture.ingest_seconds,
              static_cast<unsigned long long>(store->Size()),
              static_cast<unsigned long long>(store->SegmentCount()),
              fixture.ledger_bytes / (1024.0 * 1024.0));

  // Untimed warm-up on a small fixture of its own (own directory, own rng),
  // so the first timed row does not pay one-time process costs.
  {
    Options warm_options = options;
    warm_options.ballots = 256;
    warm_options.segment_entries = 64;
    const fs::path warm_dir = dir.string() + "-warmup";
    fs::remove_all(warm_dir);
    ChaChaRng warm_rng(0x57E1AC);
    Fixture warm(warm_options, warm_dir.string(), warm_rng);
    std::printf("  warm-up tally (%zu ballots, untimed)...\n", warm_options.ballots);
    (void)RunOnce(warm, options.threads.front());
    fs::remove_all(warm_dir);
  }

  // Thread sweep. PeakPinnedBytes is monotone over the store's lifetime, so
  // per-run peaks are isolated by reopening the log read-only would be
  // overkill: the first run establishes the peak and the identity check
  // makes later runs' peaks the same bound.
  std::vector<RunRow> rows;
  for (size_t threads : options.threads) {
    std::printf("  tallying at %zu thread%s...\n", threads, threads == 1 ? "" : "s");
    rows.push_back(RunOnce(fixture, threads));
  }
  const size_t max_threads = rows.back().threads;

  bool identical = true;
  for (const RunRow& row : rows) {
    identical = identical && row.digest == rows[0].digest;
  }

  const uint64_t peak_pinned = store->PeakPinnedBytes();
  const double segment_payload_bytes =
      static_cast<double>(fixture.ledger_bytes) /
      static_cast<double>(store->SegmentCount());
  // "Streaming" means the tally never holds more than a couple of segment
  // buffers of ledger payload: one per concurrently-scanning validate shard
  // plus the active tail. Compare against total ledger bytes for the claim.
  const double pinned_vs_total =
      static_cast<double>(peak_pinned) / static_cast<double>(fixture.ledger_bytes);

  TextTable table("Streaming dataflow tally — " + std::to_string(options.ballots) +
                  " ballots off " + store->Describe());
  table.SetHeader({"Threads", "Tally (s)", "Speedup", "Occupancy", "Tasks", "Steals"});
  auto occupancy = [](const RunRow& row) {
    double busy = 0.0;
    for (const TallyStageBusy& stage : row.metrics.stages) {
      busy += stage.busy_seconds;
    }
    double denom = row.metrics.wall_seconds * static_cast<double>(row.threads);
    return denom > 0 ? busy / denom : 0.0;
  };
  auto add_row = [&](const RunRow& row, double base_s) {
    const ExecutorStats& a = row.metrics.executor_start;
    const ExecutorStats& b = row.metrics.executor_end;
    char speedup[32], occ[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", base_s / row.tally_s);
    std::snprintf(occ, sizeof(occ), "%.0f%%", 100.0 * occupancy(row));
    table.AddRow({std::to_string(row.threads), FormatSeconds(row.tally_s), speedup, occ,
                  std::to_string(b.tasks_executed - a.tasks_executed),
                  std::to_string(b.steals - a.steals)});
  };
  for (const RunRow& row : rows) {
    add_row(row, rows[0].tally_s);
  }
  std::printf("%s", table.Format().c_str());

  std::printf("Transcripts byte-identical across thread counts: %s\n",
              identical ? "yes" : "NO");
  std::printf("Peak pinned ledger payload: %.1f KiB (ingest %.1f KiB) — "
              "%.2f%% of the %.1f MiB ballot log; segment payload ~%.1f KiB\n",
              peak_pinned / 1024.0, ingest_peak / 1024.0, 100.0 * pinned_vs_total,
              fixture.ledger_bytes / (1024.0 * 1024.0),
              segment_payload_bytes / 1024.0);

  // Per-stage occupancy of the *first* dataflow run (deeper sweeps repeat
  // the same graph; one breakdown is representative).
  const RunRow& detail = rows.back();
  TextTable stage_table("Per-stage busy time — dataflow at " +
                        std::to_string(detail.threads) + " threads");
  stage_table.SetHeader({"Stage", "Busy (s)", "Occupancy"});
  for (const TallyStageBusy& stage : detail.metrics.stages) {
    char occ[32];
    double denom =
        detail.metrics.wall_seconds * static_cast<double>(detail.threads);
    std::snprintf(occ, sizeof(occ), "%.0f%%",
                  denom > 0 ? 100.0 * stage.busy_seconds / denom : 0.0);
    stage_table.AddRow({stage.name, FormatSeconds(stage.busy_seconds), occ});
  }
  std::printf("%s", stage_table.Format().c_str());

  // Context curves: what the VoteAgain / SwissPost cost models predict for a
  // tally of the same size (measured small, extrapolated to N — the fig5b
  // methodology).
  double voteagain_s = 0.0, swisspost_s = 0.0;
  {
    ChaChaRng model_rng(0x516B);
    VoteAgainModel voteagain;
    SwissPostModel swisspost;
    for (const ScalingRow& r :
         SweepSystem(voteagain, {100, options.ballots}, 100, model_rng)) {
      if (r.voters == options.ballots) voteagain_s = r.tally_total;
    }
    for (const ScalingRow& r :
         SweepSystem(swisspost, {100, options.ballots}, 100, model_rng)) {
      if (r.voters == options.ballots) swisspost_s = r.tally_total;
    }
  }
  std::printf("Model curves at %zu ballots: VoteAgain %s, SwissPost %s "
              "(extrapolated)\n\n",
              options.ballots, FormatSeconds(voteagain_s).c_str(),
              FormatSeconds(swisspost_s).c_str());

  FILE* json = std::fopen(options.out.c_str(), "w");
  Require(json != nullptr, "fig_stream_tally: cannot write JSON output");
  std::fprintf(json,
               "{\n  \"bench\": \"stream_tally\",\n  \"ballots\": %zu,\n"
               "  \"segment_entries\": %zu,\n  \"segments\": %llu,\n"
               "  \"ledger_payload_bytes\": %llu,\n"
               "  \"peak_pinned_bytes\": %llu,\n"
               "  \"peak_pinned_over_total\": %.6f,\n"
               "  \"ingest_seconds\": %.3f,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"transcripts_identical\": %s,\n"
               "  \"sweep\": [\n",
               options.ballots, options.segment_entries,
               static_cast<unsigned long long>(store->SegmentCount()),
               static_cast<unsigned long long>(fixture.ledger_bytes),
               static_cast<unsigned long long>(peak_pinned), pinned_vs_total,
               fixture.ingest_seconds, std::thread::hardware_concurrency(),
               identical ? "true" : "false");
  auto emit_row = [&](const RunRow& row, bool last) {
    const ExecutorStats& a = row.metrics.executor_start;
    const ExecutorStats& b = row.metrics.executor_end;
    std::fprintf(json,
                 "    {\"threads\": %zu, \"tally_s\": %.6f, "
                 "\"speedup\": %.3f, \"occupancy\": %.4f, \"tasks\": %llu, "
                 "\"steals\": %llu, \"steal_failures\": %llu, "
                 "\"max_queue_depth\": %llu, \"stages\": [",
                 row.threads, row.tally_s, rows[0].tally_s / row.tally_s, occupancy(row),
                 static_cast<unsigned long long>(b.tasks_executed - a.tasks_executed),
                 static_cast<unsigned long long>(b.steals - a.steals),
                 static_cast<unsigned long long>(b.steal_failures - a.steal_failures),
                 static_cast<unsigned long long>(b.max_queue_depth));
    for (size_t i = 0; i < row.metrics.stages.size(); ++i) {
      const TallyStageBusy& stage = row.metrics.stages[i];
      std::fprintf(json, "%s{\"name\": \"%s\", \"busy_s\": %.6f}",
                   i == 0 ? "" : ", ", stage.name.c_str(), stage.busy_seconds);
    }
    std::fprintf(json, "]}%s\n", last ? "" : ",");
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    emit_row(rows[i], i + 1 == rows.size());
  }
  std::fprintf(json,
               "  ],\n  \"baselines\": {\"voteagain_tally_s\": %.3f, "
               "\"swisspost_tally_s\": %.3f, \"extrapolated\": true}\n}\n",
               voteagain_s, swisspost_s);
  std::fclose(json);
  std::printf("Wrote %s\n", options.out.c_str());

  fs::remove_all(dir);
  Require(identical, "fig_stream_tally: transcripts differ across runs");
  // The streaming claim, enforced: peak pinned payload stays within
  // (threads+2)·(2·segment + 64 KiB) — scanning shards pin at most one
  // segment each, and at most `threads` of them scan at once, plus slack.
  const double segment_bound =
      (static_cast<double>(max_threads) + 2.0) * (segment_payload_bytes * 2.0 + 65536.0);
  Require(static_cast<double>(peak_pinned) <= segment_bound,
          "fig_stream_tally: peak pinned bytes exceed (threads+2)*(2*segment + 64 KiB)");
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
