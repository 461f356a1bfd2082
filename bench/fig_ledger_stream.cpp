// Ledger storage-backend streaming bench: the scaling evidence for the
// segmented-log redesign (ROADMAP "Streaming ledger ingestion").
//
// Sweeps ballot-sized entry counts {4096, 16384, 65536} over both backends
// (in-memory deque vs file-backed segmented log) and measures, per backend:
//   * append throughput (hash chain + Merkle frontier + write-through),
//   * a full sequential cursor scan (the tally validate stage's access
//     pattern: zero-copy views, one pinned segment at a time),
//   * MerkleRoot() latency — O(log n) off the incremental frontier,
//   * ProveInclusion() latency — no segment reads,
//   * VerifyChain() (streamed full re-hash, the auditor's integrity pass),
//   * peak pinned segment bytes (file backend) — Require-enforced at most
//     4 × the segment file size, whatever the ledger size.
//
// Emits BENCH_ledger.json for the CI artifact next to the fig5b sweep.
//
// --threads N (or VOTEGRAL_THREADS) sizes a local Executor for the
// thread-safe read paths: the sequential scan becomes per-shard cursors
// (each pinning its own segment) and inclusion-proof *verification* fans
// out. Proof generation stays serial — the commitment tree's hash-invocation
// counter is deliberately unsynchronized.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/executor.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/ledger/ledger.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

// Realistic ballot payload size: a serialized Ballot (two ciphertexts, two
// signatures, kiosk certificate) is ~330 bytes.
constexpr size_t kPayloadBytes = 330;

struct BenchRow {
  std::string backend;
  size_t entries = 0;
  double append_s = 0;
  double scan_s = 0;
  double root_us = 0;
  double prove_us = 0;
  double verify_chain_s = 0;
  uint64_t peak_pinned_bytes = 0;
  uint64_t segment_bytes = 0;
};

BenchRow RunOne(const LedgerStorageConfig& config, const std::string& backend,
                size_t entries, Executor& executor) {
  BenchRow row;
  row.backend = backend;
  row.entries = entries;

  Ledger ledger(config);
  ChaChaRng rng(0x1ED6E5);

  WallTimer append_timer;
  for (size_t i = 0; i < entries; ++i) {
    ledger.Append("ballot", rng.RandomBytes(kPayloadBytes));
  }
  row.append_s = append_timer.Seconds();

  // Scan: sum payload bytes through zero-copy views — one cursor per shard,
  // each pinning at most one segment (shard boundaries are thread-count
  // independent; cursors share nothing mutable).
  WallTimer scan_timer;
  const auto shards = Executor::Shards(entries, executor.threads());
  std::atomic<uint64_t> scanned{0};
  executor.ParallelForEach(shards.size(), [&](size_t s) {
    uint64_t local = 0;
    LedgerEntryView view;
    for (LedgerCursor cursor = ledger.Scan(shards[s].first, shards[s].second);
         cursor.Next(&view);) {
      local += view.payload.size();
    }
    scanned.fetch_add(local, std::memory_order_relaxed);
  });
  row.scan_s = scan_timer.Seconds();
  Require(scanned.load() == entries * kPayloadBytes, "ledger bench: scan lost bytes");

  // Commitment queries, averaged over a few calls.
  constexpr int kReps = 64;
  WallTimer root_timer;
  LedgerHash root = {};
  for (int i = 0; i < kReps; ++i) {
    root = ledger.MerkleRoot();
  }
  row.root_us = root_timer.Seconds() / kReps * 1e6;

  // Proof generation is serial (the tree's hash-invocation counter is not
  // synchronized); verification is pure and fans out.
  WallTimer prove_timer;
  std::vector<InclusionProof> proofs;
  proofs.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    auto proof = ledger.ProveInclusion((entries / kReps) * i);
    Require(proof.ok(), "ledger bench: proof failed");
    proofs.push_back(std::move(*proof));
  }
  executor.ParallelForEach(proofs.size(), [&](size_t i) {
    Require(
        Ledger::VerifyInclusion(root, ledger.LeafHash(proofs[i].index), proofs[i]).ok(),
        "ledger bench: proof did not verify");
  });
  row.prove_us = prove_timer.Seconds() / kReps * 1e6;

  WallTimer verify_timer;
  Require(ledger.VerifyChain().ok(), "ledger bench: chain verify failed");
  row.verify_chain_s = verify_timer.Seconds();

  if (const auto* file = dynamic_cast<const FileLedgerStore*>(&ledger.store())) {
    row.peak_pinned_bytes = file->PeakPinnedBytes();
    row.segment_bytes = fs::file_size(file->SegmentPath(0));
    Require(row.peak_pinned_bytes <= 4 * row.segment_bytes,
            "ledger bench: peak pinned bytes exceed 4 x segment file size");
  }
  return row;
}

void RunSweep(size_t threads) {
  std::vector<size_t> sizes = {4096, 16384, 65536};
  if (const char* env = std::getenv("VOTEGRAL_LEDGER_BENCH_N")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      sizes = {static_cast<size_t>(parsed)};
    }
  }

  Executor executor(threads);
  Executor::Scope scope(executor);
  std::printf("ledger stream bench: %zu thread%s\n", executor.threads(),
              executor.threads() == 1 ? "" : "s");

  const std::string dir =
      (fs::temp_directory_path() / "votegral_ledger_bench").string();
  std::vector<BenchRow> rows;
  for (size_t n : sizes) {
    LedgerStorageConfig memory;
    rows.push_back(RunOne(memory, "memory", n, executor));

    fs::remove_all(dir);
    LedgerStorageConfig file;
    file.backend = LedgerStorageConfig::Backend::kFile;
    file.directory = dir;
    file.segment_entries = 1024;
    rows.push_back(RunOne(file, "file", n, executor));
    fs::remove_all(dir);
  }

  TextTable table("Ledger storage backends — append/stream/commitment sweep");
  table.SetHeader({"Backend", "Entries", "Append (s)", "Scan (s)", "Root (us)",
                   "Prove (us)", "VerifyChain (s)", "Peak pinned"});
  for (const BenchRow& row : rows) {
    char root_us[32], prove_us[32];
    std::snprintf(root_us, sizeof(root_us), "%.1f", row.root_us);
    std::snprintf(prove_us, sizeof(prove_us), "%.1f", row.prove_us);
    table.AddRow({row.backend, std::to_string(row.entries), FormatSeconds(row.append_s),
                  FormatSeconds(row.scan_s), root_us, prove_us,
                  FormatSeconds(row.verify_chain_s),
                  row.backend == "file"
                      ? std::to_string(row.peak_pinned_bytes / 1024) + " KiB"
                      : "(all resident)"});
  }
  std::printf("%s\n", table.Format().c_str());
  std::printf("File backend resident bound: peak pinned bytes <= 4 x the file size of "
              "one %zu-entry segment (enforced) while the log grows %zux.\n\n",
              size_t{1024}, sizes.back() / sizes.front());

  FILE* json = std::fopen("BENCH_ledger.json", "w");
  Require(json != nullptr, "ledger bench: cannot write BENCH_ledger.json");
  std::fprintf(json, "{\n  \"bench\": \"ledger_stream\",\n  \"payload_bytes\": %zu,\n"
                     "  \"segment_entries\": 1024,\n  \"threads\": %zu,\n  \"sweep\": [\n",
               kPayloadBytes, executor.threads());
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    std::fprintf(
        json,
        "    {\"backend\": \"%s\", \"entries\": %zu, \"append_s\": %.6f, "
        "\"scan_s\": %.6f, \"merkle_root_us\": %.3f, \"prove_inclusion_us\": %.3f, "
        "\"verify_chain_s\": %.6f, \"peak_pinned_bytes\": %llu, "
        "\"segment_bytes\": %llu}%s\n",
        row.backend.c_str(), row.entries, row.append_s, row.scan_s, row.root_us,
        row.prove_us, row.verify_chain_s,
        static_cast<unsigned long long>(row.peak_pinned_bytes),
        static_cast<unsigned long long>(row.segment_bytes),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote BENCH_ledger.json\n");
}

// Thread count: --threads N beats VOTEGRAL_THREADS beats
// hardware_concurrency (Executor's `0` default).
size_t ParseThreads(int argc, char** argv) {
  size_t threads = 0;
  if (const char* env = std::getenv("VOTEGRAL_THREADS")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      threads = static_cast<size_t>(parsed);
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--threads" && i + 1 < argc) {
      long parsed = std::atol(argv[++i]);
      Require(parsed > 0, "fig_ledger_stream: --threads needs a positive count");
      threads = static_cast<size_t>(parsed);
    } else {
      std::fprintf(stderr, "usage: fig_ledger_stream [--threads N]\n");
      std::exit(2);
    }
  }
  return threads;
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::RunSweep(votegral::ParseThreads(argc, argv));
  return 0;
}
