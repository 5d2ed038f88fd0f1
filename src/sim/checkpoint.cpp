#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "io/vfs.hpp"
#include "trace/generator.hpp"

namespace planaria::sim {

CheckpointConfig CheckpointConfig::from_env() {
  CheckpointConfig ckpt;
  if (const char* dir = std::getenv("PLANARIA_CHECKPOINT_DIR");
      dir != nullptr && *dir != '\0') {
    ckpt.dir = dir;
  }
  ckpt.every = common::parse_env_uint("PLANARIA_CHECKPOINT_EVERY",
                                      std::getenv("PLANARIA_CHECKPOINT_EVERY"),
                                      0, UINT64_MAX)
                   .value_or(0);
  return ckpt;
}

const char* recovery_outcome_name(RecoveryReport::Outcome outcome) {
  switch (outcome) {
    case RecoveryReport::Outcome::kColdStart: return "cold-start";
    case RecoveryReport::Outcome::kResumed: return "resumed";
    case RecoveryReport::Outcome::kFellBack: return "fell-back";
  }
  PLANARIA_UNREACHABLE();
}

namespace {

/// trace_fingerprint over a trace of `records` rows that `next_chunk`
/// yields in order, one batch pointer at a time (null when spent). Sample
/// up to ~4096 records at a fixed stride so fingerprinting stays cheap on
/// long traces; the positions depend only on `records`, so a streamed trace
/// is fingerprinted exactly as it passes. The count rides in the low word
/// so traces that differ only in length still get distinct fingerprints.
template <typename NextChunk>
std::uint64_t sample_fingerprint(std::uint64_t records, NextChunk next_chunk) {
  const std::uint64_t stride = std::max<std::uint64_t>(1, records / 4096);
  snapshot::Writer w;
  std::uint64_t i = 0;  // next sampled row
  for (std::uint64_t first = 0; const trace::TraceBatch* chunk = next_chunk();
       first += chunk->size()) {
    for (; i < first + chunk->size(); i += stride) {
      const trace::TraceRecord rec =
          chunk->record(static_cast<std::size_t>(i - first));
      w.u64(rec.address);
      w.u64(rec.arrival);
      w.u8(static_cast<std::uint8_t>(rec.type));
      w.u8(static_cast<std::uint8_t>(rec.device));
    }
  }
  const std::uint32_t crc =
      snapshot::crc32(w.buffer().data(), w.buffer().size());
  return (static_cast<std::uint64_t>(crc) << 32) ^ records;
}

}  // namespace

std::uint64_t trace_fingerprint(const trace::TraceBatch& batch) {
  const trace::TraceBatch* once = &batch;
  return sample_fingerprint(batch.size(),
                            [&] { return std::exchange(once, nullptr); });
}

std::uint64_t trace_fingerprint(const trace::AppProfile& app,
                                std::uint64_t records) {
  trace::AppTraceStream stream(app, records);
  trace::TraceBatch chunk;
  return sample_fingerprint(records, [&]() -> const trace::TraceBatch* {
    return stream.next(chunk, std::size_t{1} << 16) ? &chunk : nullptr;
  });
}

namespace {

std::vector<std::uint8_t> encode_checkpoint(const Simulator& sim,
                                            std::uint64_t cursor,
                                            std::uint64_t fingerprint) {
  snapshot::Writer w;
  w.tag(snapshot::tag4("CKPT"));
  w.u64(cursor);
  w.u64(fingerprint);
  sim.save_state(w);
  return w.buffer();
}

}  // namespace

void write_checkpoint(const Simulator& sim, const CheckpointConfig& ckpt,
                      std::uint64_t cursor, std::uint64_t fingerprint) {
  if (ckpt.dir.empty()) {
    throw snapshot::SnapshotError("checkpoint directory is not configured");
  }
  std::error_code ec;
  std::filesystem::create_directories(ckpt.dir, ec);  // best effort
  const std::string current = ckpt.current_path();
  // Rotate last-good before the new write: if the process dies inside
  // write_file, .prev still holds a complete snapshot. The rename goes
  // through the io VFS (directory-entry fsync, storage-fault hooks) and a
  // failure is surfaced, never dropped — callers either propagate it or
  // count it into their RecoveryReport/ServeCounters degraded accounting.
  if (io::exists(current)) {
    try {
      io::rename_file(current, ckpt.prev_path());
    } catch (const io::IoError& e) {
      throw snapshot::SnapshotError("cannot rotate " + current + ": " +
                                    e.what());
    }
  }
  snapshot::write_file(current, encode_checkpoint(sim, cursor, fingerprint));
}

void scrub_snapshot_pair(const std::string& current, const std::string& prev,
                         ScrubReport& report) {
  const std::string paths[] = {current, prev};
  bool good[2] = {false, false};
  bool quarantined[2] = {false, false};
  std::vector<std::uint8_t> payload[2];
  for (int i = 0; i < 2; ++i) {
    if (!io::exists(paths[i])) {
      ++report.missing;
      continue;
    }
    ++report.scanned;
    try {
      payload[i] = snapshot::read_file(paths[i]);
      good[i] = true;
      ++report.intact;
    } catch (const snapshot::SnapshotError& e) {
      // Corrupt: move aside, never delete — the quarantined bytes are the
      // post-mortem evidence of what the storage layer actually did.
      try {
        io::rename_file(paths[i], paths[i] + ".quarantine");
        quarantined[i] = true;
        ++report.quarantined;
        report.notes.push_back(paths[i] + ": " + e.what() +
                               " -> quarantined");
      } catch (const io::IoError& rename_err) {
        report.notes.push_back(paths[i] + ": corrupt but quarantine failed: " +
                               rename_err.what());
      }
    }
  }
  // Repair a quarantined slot from its surviving partner so the pair offers
  // two intact fallback generations again. Slots missing from the start are
  // not fabricated.
  for (int i = 0; i < 2; ++i) {
    const int other = 1 - i;
    if (!quarantined[i] || !good[other]) continue;
    try {
      snapshot::write_file(paths[i], payload[other]);
      ++report.repaired;
      report.notes.push_back(paths[i] + ": repaired from " + paths[other]);
    } catch (const snapshot::SnapshotError& e) {
      report.notes.push_back(paths[i] + ": repair failed: " + e.what());
    }
  }
}

ScrubReport scrub_checkpoints(const CheckpointConfig& ckpt) {
  ScrubReport report;
  scrub_snapshot_pair(ckpt.current_path(), ckpt.prev_path(), report);
  return report;
}

std::uint64_t load_checkpoint(Simulator& sim, const std::string& path,
                              std::uint64_t expected_fingerprint) {
  const std::vector<std::uint8_t> payload = snapshot::read_file(path);
  snapshot::Reader r(payload);
  r.expect_tag(snapshot::tag4("CKPT"));
  const std::uint64_t cursor = r.u64();
  const std::uint64_t fingerprint = r.u64();
  if (fingerprint != expected_fingerprint) {
    throw snapshot::SnapshotError(
        "snapshot was taken against a different trace");
  }
  sim.load_state(r);
  r.require_end();
  return cursor;
}

namespace {

/// Rows [begin, end) of `batch`: one chunk of the checkpointed loop's feed.
struct TraceSpan {
  const trace::TraceBatch* batch = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// A Simulator restored from the newest intact snapshot of an enabled
/// `ckpt` (current, then .prev) taken under `key` at a cursor within
/// `records`, else a fresh one (cold start). `cursor` receives the record to
/// continue at and `report` the recovery trail (reset first).
std::unique_ptr<Simulator> restore_or_start(
    const SimConfig& config, PrefetcherFactory factory,
    std::string prefetcher_name, const CheckpointConfig& ckpt,
    std::uint64_t key, std::uint64_t records, std::uint64_t& cursor,
    RecoveryReport& report) {
  report = RecoveryReport{};
  cursor = 0;
  if (ckpt.enabled()) {
    const std::string candidates[] = {ckpt.current_path(), ckpt.prev_path()};
    for (std::size_t i = 0; i < 2; ++i) {
      std::error_code ec;
      if (!std::filesystem::exists(candidates[i], ec)) {
        continue;  // never written — a quiet cold start, not a recovery event
      }
      // Fresh simulator per attempt: a throwing load_state leaves the object
      // partially updated, so a rejected candidate's instance is discarded.
      auto attempt = std::make_unique<Simulator>(config, factory,
                                                prefetcher_name);
      try {
        const std::uint64_t at = load_checkpoint(*attempt, candidates[i], key);
        if (at > records) {
          throw snapshot::SnapshotError(
              "snapshot cursor lies beyond the end of the trace");
        }
        cursor = at;
        report.outcome = i == 0 ? RecoveryReport::Outcome::kResumed
                                : RecoveryReport::Outcome::kFellBack;
        report.snapshot_path = candidates[i];
        report.resumed_cursor = at;
        return attempt;
      } catch (const snapshot::SnapshotError& e) {
        report.notes.push_back(candidates[i] + ": " + e.what());
      }
    }
  }
  report.outcome = RecoveryReport::Outcome::kColdStart;
  return std::make_unique<Simulator>(config, std::move(factory),
                                     std::move(prefetcher_name));
}

/// The one resume-feed-checkpoint loop. Restores from current, then .prev,
/// then cold (restore_or_start), and feeds the rows past the cursor through
/// run_sharded in chunks of at most `max_rows` that also end at every
/// multiple of `ckpt.every`, checkpointing under `key` after each such
/// boundary except the last. `next(rows)` yields the next chunk of the
/// trace, in order from row 0, as a [begin, end) span of at most `rows`
/// rows; rows before the cursor are skipped, not simulated.
template <typename NextSpan>
SimResult feed_checkpointed(const SimConfig& config, PrefetcherFactory factory,
                            std::string prefetcher_name, std::uint64_t records,
                            std::uint64_t key, const CheckpointConfig& ckpt,
                            common::ThreadPool* pool, RecoveryReport* report,
                            std::uint64_t max_rows, NextSpan next) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  std::uint64_t cursor = 0;
  const std::unique_ptr<Simulator> sim =
      restore_or_start(config, std::move(factory), std::move(prefetcher_name),
                       ckpt, key, records, cursor, rep);
  for (std::uint64_t pos = 0; pos < records;) {
    std::uint64_t rows = max_rows;
    if (ckpt.enabled()) {
      rows = std::min(rows, ckpt.every - pos % ckpt.every);
    }
    const TraceSpan span = next(rows);
    const std::uint64_t end = pos + (span.end - span.begin);
    if (end == pos) break;  // the source ran dry early
    if (cursor < end) {
      sim->run_sharded(*span.batch,
                       span.begin + static_cast<std::size_t>(
                                        std::max(cursor, pos) - pos),
                       span.end, pool);
      cursor = end;
      // No checkpoint after the final chunk: the result is about to be
      // returned, and a stale full-run snapshot would poison the next run.
      // A failed write (rotation included) is degraded-mode, not fatal: the
      // state in memory is untouched, so the run continues and only
      // resumability is lost — counted and noted, never silent.
      if (ckpt.enabled() && end < records && end % ckpt.every == 0) {
        try {
          write_checkpoint(*sim, ckpt, end, key);
        } catch (const snapshot::SnapshotError& e) {
          ++rep.checkpoint_failures;
          rep.notes.push_back("checkpoint at cursor " + std::to_string(end) +
                              " failed: " + e.what());
        }
      }
    }
    pos = end;
  }
  return sim->finish();
}

}  // namespace

SimResult run_checkpointed(const SimConfig& config, PrefetcherFactory factory,
                           std::string prefetcher_name,
                           const trace::TraceBatch& batch,
                           const CheckpointConfig& ckpt,
                           common::ThreadPool* pool, RecoveryReport* report) {
  const std::uint64_t n = batch.size();
  std::size_t pos = 0;
  return feed_checkpointed(
      config, std::move(factory), std::move(prefetcher_name), n,
      ckpt.enabled() ? trace_fingerprint(batch) : 0, ckpt, pool, report, n,
      [&](std::uint64_t rows) {
        const std::size_t begin = pos;
        pos += static_cast<std::size_t>(std::min<std::uint64_t>(rows, n - pos));
        return TraceSpan{&batch, begin, pos};
      });
}

SimResult run_checkpointed(const SimConfig& config, PrefetcherFactory factory,
                           std::string prefetcher_name,
                           const trace::AppProfile& app, std::uint64_t records,
                           std::uint64_t key, const CheckpointConfig& ckpt,
                           common::ThreadPool* pool, RecoveryReport* report) {
  // A Simulator's per-channel shards grow to the largest share of a chunk
  // one channel receives, so the chunk size bounds them too (2^18-row
  // chunks grew a skewed 64M-record HoK run's shards by ~3 MiB).
  constexpr std::uint64_t kChunkRows = std::uint64_t{1} << 16;
  trace::AppTraceStream stream(app, records);
  trace::TraceBatch chunk;
  return feed_checkpointed(
      config, std::move(factory), std::move(prefetcher_name), records, key,
      ckpt, pool, report, kChunkRows, [&](std::uint64_t rows) {
        stream.next(chunk, static_cast<std::size_t>(rows));
        return TraceSpan{&chunk, 0, chunk.size()};
      });
}

}  // namespace planaria::sim
