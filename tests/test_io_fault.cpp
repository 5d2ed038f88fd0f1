// Storage-fault torture for the src/io VFS and the recovery layers above it
// (DESIGN.md §16).
//
// Four layers:
//   * Envelope fuzz: a PLNSNAP1 file truncated at EVERY byte offset, and with
//     a bit flipped in every byte, must be rejected — torn and rotted writes
//     are never silently decodable.
//   * Shim semantics: each injected fault class keeps its contract — throwing
//     classes leave the previous complete generation readable, the lying
//     classes (torn write, fsync loss) leave damage the CRC layer catches.
//   * Recovery chain: checkpointed runs with EIO/ENOSPC/torn/rename/fsync
//     faults armed still finish bit-identical to the uninterrupted run, and a
//     clean rerun resumes from whatever the storm left behind.
//   * Scrub/repair: corrupt envelopes are quarantined (never deleted) and
//     repaired from the surviving partner, with exact counts.
//
// planaria-audit --stage storm drives the same machinery as an end-to-end
// gate; this is the fast in-tree slice with per-offset coverage the audit's
// seeded sampling cannot promise.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/vfs.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace {

namespace fs = std::filesystem;
namespace io = planaria::io;
namespace sim = planaria::sim;
namespace snapshot = planaria::snapshot;
namespace trace = planaria::trace;

// PLNSNAP1 header: 8B magic + u32 version + u64 payload length + u32 CRC32.
constexpr std::streamoff kEnvelopeHeaderBytes = 24;

class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "planaria-test-io-fault";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

std::vector<std::uint8_t> pattern_payload(std::size_t n) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Envelope fuzz: every truncation offset, every byte rotted
// ---------------------------------------------------------------------------

TEST_F(IoFaultTest, TruncationAtEveryByteOffsetIsRejected) {
  const auto payload = pattern_payload(97);
  snapshot::write_file(path("full.snap"), payload);
  const std::uintmax_t size = fs::file_size(path("full.snap"));
  ASSERT_EQ(size, static_cast<std::uintmax_t>(kEnvelopeHeaderBytes) +
                      payload.size());

  for (std::uintmax_t keep = 0; keep < size; ++keep) {
    fs::copy_file(path("full.snap"), path("torn.snap"),
                  fs::copy_options::overwrite_existing);
    fs::resize_file(path("torn.snap"), keep);
    EXPECT_THROW(snapshot::read_file(path("torn.snap")),
                 snapshot::SnapshotError)
        << "accepted a write torn at byte " << keep << " of " << size;
  }
}

TEST_F(IoFaultTest, BitRotInEveryByteIsRejected) {
  const auto payload = pattern_payload(64);
  snapshot::write_file(path("clean.snap"), payload);
  const std::uintmax_t size = fs::file_size(path("clean.snap"));

  // One flipped bit per byte position, cycling through all eight bit lanes,
  // covers header (magic, version, length, CRC) and payload alike.
  for (std::uintmax_t at = 0; at < size; ++at) {
    fs::copy_file(path("clean.snap"), path("rot.snap"),
                  fs::copy_options::overwrite_existing);
    {
      std::fstream f(path("rot.snap"),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(at));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(at));
      f.put(static_cast<char>(byte ^ (1 << (at % 8))));
    }
    EXPECT_THROW(snapshot::read_file(path("rot.snap")),
                 snapshot::SnapshotError)
        << "accepted a flipped bit in byte " << at;
  }
}

// ---------------------------------------------------------------------------
// Shim semantics per fault class
// ---------------------------------------------------------------------------

TEST_F(IoFaultTest, ThrowingClassesLeaveThePreviousGenerationIntact) {
  const auto good = pattern_payload(256);
  for (const io::IoFaultClass c :
       {io::IoFaultClass::kWriteError, io::IoFaultClass::kEnospc,
        io::IoFaultClass::kRenameFail}) {
    SCOPED_TRACE(io::io_fault_class_name(c));
    const std::string file = path("gen.snap");
    snapshot::write_file(file, good);

    io::IoFaultInjector shim(io::IoFaultPlan::single(c, 1.0, 0xBADD15C));
    {
      io::ScopedFaultInjector armed(&shim);
      EXPECT_THROW(snapshot::write_file(file, pattern_payload(300)),
                   snapshot::SnapshotError);
    }
    EXPECT_GT(shim.injected(c), 0u);
    // The failed write changed nothing: old bytes intact, no tmp litter.
    EXPECT_EQ(snapshot::read_file(file), good);
    EXPECT_FALSE(fs::exists(file + ".tmp"));
    fs::remove(file);
  }
}

TEST_F(IoFaultTest, LyingClassesAlwaysLeaveDetectableDamage) {
  // Torn write and fsync loss "succeed" at the API yet persist a strict
  // prefix. Across many seeds (= many torn offsets) the CRC envelope must
  // reject every single one — no offset may slip through as decodable.
  for (const io::IoFaultClass c :
       {io::IoFaultClass::kTornWrite, io::IoFaultClass::kFsyncLoss}) {
    SCOPED_TRACE(io::io_fault_class_name(c));
    std::uint64_t applied = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      const std::string file = path("liar.snap");
      fs::remove(file);
      io::IoFaultInjector shim(io::IoFaultPlan::single(c, 1.0, seed));
      {
        io::ScopedFaultInjector armed(&shim);
        snapshot::write_file(file, pattern_payload(48 + seed % 91));
      }
      applied += shim.injected(c);
      EXPECT_THROW(snapshot::read_file(file), snapshot::SnapshotError)
          << "seed " << seed << " produced a decodable torn file";
    }
    EXPECT_GT(applied, 0u);
  }
}

TEST_F(IoFaultTest, ReadSideFaultsAreLoudNotWrong) {
  const auto good = pattern_payload(128);
  snapshot::write_file(path("readable.snap"), good);

  io::IoFaultInjector eio(
      io::IoFaultPlan::single(io::IoFaultClass::kReadError, 1.0, 0xE10));
  {
    io::ScopedFaultInjector armed(&eio);
    EXPECT_THROW(snapshot::read_file(path("readable.snap")),
                 snapshot::SnapshotError);
  }
  EXPECT_GT(eio.injected(io::IoFaultClass::kReadError), 0u);

  io::IoFaultInjector rot(
      io::IoFaultPlan::single(io::IoFaultClass::kBitRot, 1.0, 0xB17));
  {
    io::ScopedFaultInjector armed(&rot);
    EXPECT_THROW(snapshot::read_file(path("readable.snap")),
                 snapshot::SnapshotError);
  }
  EXPECT_GT(rot.injected(io::IoFaultClass::kBitRot), 0u);

  // Disarmed, the same file reads back clean — the faults were in-flight,
  // never on disk.
  EXPECT_EQ(snapshot::read_file(path("readable.snap")), good);
}

TEST_F(IoFaultTest, AppendLineDegradesToFalseUnderEveryFaultClass) {
  io::IoFaultPlan all;
  for (int c = 0; c < io::kIoFaultClassCount; ++c) all.rate[c] = 1.0;
  io::IoFaultInjector shim(all);
  {
    io::ScopedFaultInjector armed(&shim);
    // Advisory appends must never throw, only report failure.
    for (int i = 0; i < 32; ++i) {
      io::append_line(path("traj.json"), "{\"n\":" + std::to_string(i) + "}\n");
    }
  }
  EXPECT_GT(shim.total_injected(), 0u);
  EXPECT_TRUE(io::append_line(path("traj.json"), "{\"n\":-1}\n"));
}

// ---------------------------------------------------------------------------
// Checkpoint recovery chain under injected storms
// ---------------------------------------------------------------------------

trace::TraceBatch storm_trace(std::uint64_t records) {
  return trace::generate_app_trace(trace::paper_apps().front(), records);
}

TEST_F(IoFaultTest, CheckpointedRunSurvivesEveryWriteSideFaultClass) {
  const auto t = storm_trace(8000);
  const auto factory = sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria);
  const auto base = sim::Simulator::run(sim::SimConfig{}, factory, "planaria", t);

  for (const io::IoFaultClass c :
       {io::IoFaultClass::kWriteError, io::IoFaultClass::kEnospc,
        io::IoFaultClass::kTornWrite, io::IoFaultClass::kRenameFail,
        io::IoFaultClass::kFsyncLoss}) {
    SCOPED_TRACE(io::io_fault_class_name(c));
    std::uint64_t applied = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sim::CheckpointConfig ckpt;
      ckpt.dir = dir_.string();
      ckpt.every = 1000;
      ckpt.label = "storm";
      for (const std::string& p :
           {ckpt.current_path(), ckpt.prev_path(),
            ckpt.current_path() + ".quarantine",
            ckpt.prev_path() + ".quarantine"}) {
        io::remove_file(p);
      }

      // Storm pass: every checkpoint write rolls against the armed class. A
      // failed checkpoint costs resumability, never the result.
      io::IoFaultInjector shim(io::IoFaultPlan::single(c, 0.5, seed * 0x51C));
      sim::RecoveryReport stormy;
      sim::SimResult under_storm;
      {
        io::ScopedFaultInjector armed(&shim);
        under_storm = sim::run_checkpointed(sim::SimConfig{}, factory,
                                            "planaria", t, ckpt, nullptr,
                                            &stormy);
      }
      applied += shim.injected(c);
      EXPECT_TRUE(under_storm == base);
      // Every failed write is accounted, with a note per failure.
      if (stormy.checkpoint_failures > 0) {
        EXPECT_GE(stormy.notes.size(), stormy.checkpoint_failures);
      }

      // Clean rerun: whatever chain state the storm left (fresh current,
      // stale current + good .prev, or nothing at all) must recover to the
      // same result — resumed, fell back, or cold-started, never wrong.
      sim::RecoveryReport calm;
      const auto rerun = sim::run_checkpointed(
          sim::SimConfig{}, factory, "planaria", t, ckpt, nullptr, &calm);
      EXPECT_TRUE(rerun == base);
    }
    EXPECT_GT(applied, 0u) << "storm never actually fired";
  }
}

// ---------------------------------------------------------------------------
// Scrub / repair round-trips
// ---------------------------------------------------------------------------

void flip_payload_byte(const std::string& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(kEnvelopeHeaderBytes);
  char byte = 0;
  f.get(byte);
  f.seekp(kEnvelopeHeaderBytes);
  f.put(static_cast<char>(byte ^ 0x20));
}

TEST_F(IoFaultTest, ScrubQuarantinesAndRepairsFromTheSurvivingCopy) {
  const auto t = storm_trace(6000);
  const auto factory = sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria);
  const auto base = sim::Simulator::run(sim::SimConfig{}, factory, "planaria", t);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 2000;
  ckpt.label = "scrub";

  // Two generations on disk: cursor 2000 in .prev, cursor 4000 in current.
  {
    sim::Simulator s(sim::SimConfig{}, factory, "planaria");
    s.run_sharded(t, 0, 2000);
    sim::write_checkpoint(s, ckpt, 2000, sim::trace_fingerprint(t));
    s.run_sharded(t, 2000, 4000);
    sim::write_checkpoint(s, ckpt, 4000, sim::trace_fingerprint(t));
  }
  const auto prev_bytes = snapshot::read_file(ckpt.prev_path());

  // A clean pair scrubs as two intact envelopes, no actions taken.
  {
    const sim::ScrubReport rep = sim::scrub_checkpoints(ckpt);
    EXPECT_EQ(rep.scanned, 2u);
    EXPECT_EQ(rep.intact, 2u);
    EXPECT_EQ(rep.quarantined, 0u);
    EXPECT_EQ(rep.repaired, 0u);
    EXPECT_EQ(rep.missing, 0u);
    EXPECT_TRUE(rep.notes.empty());
  }

  // Rot the current envelope: scrub must move it aside — never delete — and
  // rebuild the slot from the good .prev.
  flip_payload_byte(ckpt.current_path());
  {
    const sim::ScrubReport rep = sim::scrub_checkpoints(ckpt);
    EXPECT_EQ(rep.scanned, 2u);
    EXPECT_EQ(rep.intact, 1u);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_EQ(rep.repaired, 1u);
    EXPECT_EQ(rep.missing, 0u);
    EXPECT_TRUE(fs::exists(ckpt.current_path() + ".quarantine"));
    // The repaired current is byte-for-byte the surviving generation.
    EXPECT_EQ(snapshot::read_file(ckpt.current_path()), prev_bytes);
  }

  // The repaired chain resumes (one generation older) and still finishes
  // bit-identical.
  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(sim::SimConfig{}, factory,
                                            "planaria", t, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kResumed);
  EXPECT_EQ(rep.resumed_cursor, 2000u);
  EXPECT_TRUE(result == base);
}

TEST_F(IoFaultTest, ScrubWithBothCopiesRottenQuarantinesBothRepairsNothing) {
  const auto t = storm_trace(4000);
  const auto factory = sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 1000;
  ckpt.label = "doomed";
  {
    sim::Simulator s(sim::SimConfig{}, factory, "planaria");
    s.run_sharded(t, 0, 1000);
    sim::write_checkpoint(s, ckpt, 1000, sim::trace_fingerprint(t));
    s.run_sharded(t, 1000, 2000);
    sim::write_checkpoint(s, ckpt, 2000, sim::trace_fingerprint(t));
  }
  flip_payload_byte(ckpt.current_path());
  flip_payload_byte(ckpt.prev_path());

  const sim::ScrubReport rep = sim::scrub_checkpoints(ckpt);
  EXPECT_EQ(rep.scanned, 2u);
  EXPECT_EQ(rep.intact, 0u);
  EXPECT_EQ(rep.quarantined, 2u);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_TRUE(fs::exists(ckpt.current_path() + ".quarantine"));
  EXPECT_TRUE(fs::exists(ckpt.prev_path() + ".quarantine"));

  // With both generations quarantined the run cold-starts — and says so.
  const auto base = sim::Simulator::run(sim::SimConfig{}, factory, "planaria", t);
  sim::RecoveryReport recovery;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{}, factory, "planaria", t, ckpt, nullptr, &recovery);
  EXPECT_EQ(recovery.outcome, sim::RecoveryReport::Outcome::kColdStart);
  EXPECT_TRUE(result == base);
}

TEST_F(IoFaultTest, ScrubCountsAMissingPartnerWithoutFabricatingIt) {
  const auto t = storm_trace(3000);
  const auto factory = sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 1000;
  ckpt.label = "lone";
  {
    sim::Simulator s(sim::SimConfig{}, factory, "planaria");
    s.run_sharded(t, 0, 1000);
    sim::write_checkpoint(s, ckpt, 1000, sim::trace_fingerprint(t));
  }
  ASSERT_FALSE(fs::exists(ckpt.prev_path()));

  const sim::ScrubReport rep = sim::scrub_checkpoints(ckpt);
  EXPECT_EQ(rep.scanned, 1u);
  EXPECT_EQ(rep.intact, 1u);
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(rep.missing, 1u);
  // A run that has only ever written current legitimately has no .prev; the
  // scrub does not invent one.
  EXPECT_FALSE(fs::exists(ckpt.prev_path()));
}

}  // namespace
