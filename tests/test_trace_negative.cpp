// Negative-path corpus for the trace boundary: hostile or damaged input fed
// to every reader (binary, CSV, DRAMSim2, ChampSim) under both recovery
// policies. kThrow must fail precisely (location in the message, no giant
// allocation first); kRecover must salvage what is intact, tally what it
// skipped, and still refuse input that is the wrong format outright. The
// mapped PLTB container has no recovery policy: it accepts exactly what a v1
// writer emits and rejects every other byte image.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "reference_crc32.hpp"
#include "trace/batch.hpp"
#include "trace/import.hpp"
#include "trace/io.hpp"

namespace {

namespace check = planaria::check;
namespace trace = planaria::trace;
using planaria::AccessType;
using planaria::DeviceId;
using trace::MappedTraceBatch;
using trace::RecoveryPolicy;
using trace::TraceBatch;
using trace::TraceReadReport;
using trace::TraceRecord;

TraceBatch sample_records(std::size_t n) {
  TraceBatch out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.address = 0x1000 + (i << 6);
    r.arrival = 10 * i;
    r.type = i % 2 == 0 ? AccessType::kRead : AccessType::kWrite;
    r.device = DeviceId::kCpuBig;
    out.push_back(r);
  }
  return out;
}

std::string valid_binary(std::size_t n) {
  std::ostringstream os;
  trace::write_binary(os, sample_records(n));
  return os.str();
}

// ---------------------------------------------------------------------------
// Binary reader

TEST(BinaryNegative, RoundTripReportsCleanRead) {
  std::istringstream is(valid_binary(5));
  TraceReadReport report;
  const auto out = trace::read_binary(is, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_FALSE(report.truncated);
}

TEST(BinaryNegative, TruncatedHeaderThrowsUnderBothPolicies) {
  for (auto policy : {RecoveryPolicy::kThrow, RecoveryPolicy::kRecover}) {
    std::istringstream empty("");
    EXPECT_THROW(trace::read_binary(empty, policy), std::runtime_error);
    std::istringstream partial(valid_binary(1).substr(0, 7));
    EXPECT_THROW(trace::read_binary(partial, policy), std::runtime_error);
  }
}

TEST(BinaryNegative, BadMagicThrowsUnderBothPolicies) {
  std::string bytes = valid_binary(2);
  bytes[0] = 'X';  // not a planaria trace: nothing is salvageable
  for (auto policy : {RecoveryPolicy::kThrow, RecoveryPolicy::kRecover}) {
    std::istringstream is(bytes);
    EXPECT_THROW(trace::read_binary(is, policy), std::runtime_error);
  }
}

TEST(BinaryNegative, BadVersionThrowsUnderBothPolicies) {
  std::string bytes = valid_binary(2);
  bytes[4] = 0x7F;  // version field
  for (auto policy : {RecoveryPolicy::kThrow, RecoveryPolicy::kRecover}) {
    std::istringstream is(bytes);
    EXPECT_THROW(trace::read_binary(is, policy), std::runtime_error);
  }
}

/// The headline bugfix: a 16-byte stream whose header claims 2^61 records
/// used to size a multi-gigabyte reserve before reading a single record. The
/// count must be validated against the stream's real size first.
TEST(BinaryNegative, HugeHeaderCountIsRejectedBeforeAllocation) {
  std::string bytes = valid_binary(0);
  const std::uint64_t huge = std::uint64_t{1} << 61;
  std::memcpy(&bytes[8], &huge, sizeof(huge));

  std::istringstream is(bytes);
  try {
    trace::read_binary(is, RecoveryPolicy::kThrow);
    FAIL() << "huge header count must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("header claims"), std::string::npos);
  }

  // kRecover: the honest answer is "zero whole records", delivered instantly.
  std::istringstream is2(bytes);
  TraceReadReport report;
  const auto out =
      trace::read_binary(is2, RecoveryPolicy::kRecover, &report);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(report.truncated);
  EXPECT_GE(report.errors, 1u);
}

TEST(BinaryNegative, TruncatedPayloadSalvagesCompletePrefix) {
  // 4 declared records but the last one cut mid-record.
  std::string bytes = valid_binary(4);
  bytes.resize(bytes.size() - 10);

  std::istringstream throwing(bytes);
  EXPECT_THROW(trace::read_binary(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(bytes);
  TraceReadReport report;
  const auto out =
      trace::read_binary(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.records, 3u);
  const auto reference = sample_records(4);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.arrivals()[i], reference.arrivals()[i]);
  }
}

TEST(BinaryNegative, CorruptEnumBytesSkippedUnderRecover) {
  // Record 1's type byte lives at header + record + offset-of-type.
  std::string bytes = valid_binary(3);
  bytes[16 + 24 + 16] = 0x55;  // type byte of record 1: neither R nor W

  std::istringstream throwing(bytes);
  EXPECT_THROW(trace::read_binary(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(bytes);
  TraceReadReport report;
  const auto out =
      trace::read_binary(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 1u);
  ASSERT_EQ(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("record 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CSV reader

TEST(CsvNegative, EmptyFileThrowsOrReportsEmpty) {
  std::istringstream throwing("");
  EXPECT_THROW(trace::read_csv(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering("");
  TraceReadReport report;
  const auto out = trace::read_csv(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.errors, 1u);
}

TEST(CsvNegative, GarbageLinesSkippedAndCounted) {
  const std::string csv =
      "address,arrival,type,device\n"
      "0x1000,5,R,cpu-big\n"
      "complete garbage\n"
      "0x2000,notanumber,R,cpu-big\n"
      "0x3000,15,Q,cpu-big\n"
      "0x4000,20,W,no-such-device\n"
      "0x5000,25,W,cpu-big\n";

  std::istringstream throwing(csv);
  EXPECT_THROW(trace::read_csv(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(csv);
  TraceReadReport report;
  const auto out = trace::read_csv(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 4u);
  EXPECT_EQ(report.records, 2u);
  // Each defect message carries its line number for the operator.
  ASSERT_GE(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("line 3"), std::string::npos);
}

TEST(CsvNegative, WindowsLineEndingsParseClean) {
  const std::string csv =
      "address,arrival,type,device\r\n"
      "0x1000,5,R,cpu-big\r\n"
      "0x2000,10,W,cpu-big\r\n";
  std::istringstream is(csv);
  // The '\r' of each CRLF pair used to poison the device-name match; a CRLF
  // file must now parse identically to its LF twin, even under kThrow.
  const auto out = trace::read_csv(is, RecoveryPolicy::kThrow);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.arrivals()[0], 5u);
  EXPECT_EQ(out.record(1).type, AccessType::kWrite);
}

TEST(CsvNegative, OverlongLineRejected) {
  std::string csv = "address,arrival,type,device\n";
  csv += std::string(trace::kMaxLineBytes + 1, 'a');
  csv += "\n0x1000,5,R,cpu-big\n";
  std::istringstream is(csv);
  TraceReadReport report;
  const auto out = trace::read_csv(is, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_NE(report.messages[0].find("overlong"), std::string::npos);
}

TEST(CsvNegative, ErrorBudgetExhaustionThrowsEvenUnderRecover) {
  std::string csv = "address,arrival,type,device\n";
  for (std::uint64_t i = 0; i < trace::kDefaultErrorBudget + 2; ++i) {
    csv += "garbage line\n";
  }
  std::istringstream is(csv);
  TraceReadReport report;
  try {
    trace::read_csv(is, RecoveryPolicy::kRecover, &report);
    FAIL() << "budget exhaustion must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("error budget"), std::string::npos);
  }
  // Only the first few messages are retained verbatim; the rest only count.
  EXPECT_EQ(report.messages.size(), trace::kMaxReportedErrors);
  EXPECT_GT(report.errors, trace::kDefaultErrorBudget);
}

// ---------------------------------------------------------------------------
// Importers (DRAMSim2, ChampSim CSV)

TEST(ImportNegative, Dramsim2GarbageSkippedAndCounted) {
  const std::string trc =
      "; comment line\n"
      "0x1000 P_MEM_RD 5\n"
      "not a trace line\n"
      "ZZZZ P_MEM_RD 15\n"
      "0x3000 P_BOGUS_TYPE 20\n"
      "0x4000 P_MEM_WR 25\n";

  std::istringstream throwing(trc);
  EXPECT_THROW(trace::read_dramsim2(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(trc);
  TraceReadReport report;
  const auto out =
      trace::read_dramsim2(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 3u);
  ASSERT_GE(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("line 3"), std::string::npos);
}

TEST(ImportNegative, Dramsim2ThrowCarriesLineNumber) {
  std::istringstream is("0x1000 P_MEM_RD 5\nbroken\n");
  try {
    trace::read_dramsim2(is, RecoveryPolicy::kThrow);
    FAIL() << "malformed line must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ImportNegative, Dramsim2OverlongLineRejected) {
  std::string trc = "0x1000 P_MEM_RD 5\n";
  trc += "0x2000 " + std::string(trace::kMaxLineBytes, 'R') + " 10\n";
  std::istringstream is(trc);
  TraceReadReport report;
  const auto out =
      trace::read_dramsim2(is, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(report.errors, 1u);
}

TEST(ImportNegative, ChampsimGarbageSkippedAndCounted) {
  const std::string csv =
      "address,is_write,cycle\n"
      "0x1000,0,5\n"
      "0x2000,1\n"
      "GGGG,0,15\n"
      "0x4000,1,20\n";

  std::istringstream throwing(csv);
  EXPECT_THROW(trace::read_champsim_csv(throwing, RecoveryPolicy::kThrow),
               std::runtime_error);

  std::istringstream recovering(csv);
  TraceReadReport report;
  const auto out =
      trace::read_champsim_csv(recovering, RecoveryPolicy::kRecover, &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.errors, 2u);
}

TEST(ImportNegative, ChampsimWindowsLineEndingsParseClean) {
  std::istringstream is("address,is_write,cycle\r\n0x1000,0,5\r\n0x2000,1,10\r\n");
  const auto out = trace::read_champsim_csv(is, RecoveryPolicy::kThrow);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.record(1).type, AccessType::kWrite);
}

// Signs, padding and trailing junk in a numeric field are defects, never a
// wrapped or truncated number: "-5" must not read as 2^64-5, "12abc" as 12,
// and a ChampSim is_write of "-1" must not make a write. Each bad row sits
// between two good ones: kThrow rejects the stream, kRecover keeps the good
// rows and counts exactly one defect.
using Reader = TraceBatch (*)(std::istream&, RecoveryPolicy, TraceReadReport*);

void expect_each_row_rejected(Reader read, const std::string& head,
                              const std::string& good,
                              const std::vector<std::string>& bad_rows) {
  for (const std::string& bad : bad_rows) {
    const std::string text = head + good + "\n" + bad + "\n" + good + "\n";
    std::istringstream throwing(text);
    EXPECT_THROW(read(throwing, RecoveryPolicy::kThrow, nullptr),
                 std::runtime_error)
        << bad;
    std::istringstream recovering(text);
    TraceReadReport report;
    const TraceBatch out = read(recovering, RecoveryPolicy::kRecover, &report);
    EXPECT_EQ(out.size(), 2u) << bad;
    EXPECT_EQ(report.errors, 1u) << bad;
  }
}

TEST(TextFieldNegative, CsvRejectsSignsPaddingAndTrailingJunk) {
  expect_each_row_rejected(
      &trace::read_csv, "address,arrival,type,device\n", "0x1000,5,R,cpu-big",
      {"-4096,5,R,cpu-big", "+4096,5,R,cpu-big", " 4096,5,R,cpu-big",
       "4096abc,5,R,cpu-big", "0x10zz,5,R,cpu-big", "0x1000,-5,R,cpu-big",
       "0x1000,+7,R,cpu-big", "0x1000, 12,R,cpu-big", "0x1000,12abc,R,cpu-big",
       "0x1000,18446744073709551616,R,cpu-big"});
}

TEST(TextFieldNegative, DramSim2RejectsSignsAndTrailingJunk) {
  expect_each_row_rejected(
      &trace::read_dramsim2, "", "0x1000 P_MEM_RD 5",
      {"-0x1000 P_MEM_RD 5", "+1000 P_MEM_RD 5", "0x10zz P_MEM_RD 5",
       "0x1000 P_MEM_RD -3", "0x1000 P_MEM_RD +7", "0x1000 P_MEM_RD 12abc"});
}

TEST(TextFieldNegative, ChampSimRejectsSignsPaddingAndTrailingJunk) {
  expect_each_row_rejected(
      &trace::read_champsim_csv, "address,is_write,cycle\n", "0x1000,0,5",
      {"-4096,0,5", "+4096,0,5", "4096abc,0,5", "0x1000,-1,5", "0x1000,+1,5",
       "0x1000, 1,5", "0x1000,1abc,5", "0x1000,0,-3", "0x1000,0,+7",
       "0x1000,0, 12", "0x1000,0,12abc"});
}

TEST(TextFieldNegative, AddressBasesStayDecimalOrHex) {
  // Decimal, or hex after 0x/0X; DRAMSim2 addresses are hex either way.
  std::istringstream csv("address,arrival,type,device\n4096,5,R,cpu-big\n"
                         "0X2000,6,W,cpu-big\n");
  const TraceBatch a = trace::read_csv(csv, RecoveryPolicy::kThrow);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.addresses()[0], 0x1000u);
  EXPECT_EQ(a.addresses()[1], 0x2000u);
  std::istringstream trc("1000 P_MEM_RD 5\n0x2000 P_MEM_WR 6\n");
  const TraceBatch b = trace::read_dramsim2(trc, RecoveryPolicy::kThrow);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.addresses()[0], 0x1000u);
  EXPECT_EQ(b.addresses()[1], 0x2000u);
  std::istringstream champ("4096,1,5\n0x2000,0,6\n");
  const TraceBatch c = trace::read_champsim_csv(champ, RecoveryPolicy::kThrow);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.addresses()[0], 0x1000u);
  EXPECT_EQ(c.record(0).type, AccessType::kWrite);
}

TEST(ImportNegative, EmptyStreamsYieldEmptyTraces) {
  // Text formats treat an empty stream as an empty capture, not an error —
  // only the binary format (whose header is mandatory) rejects it.
  std::istringstream a(""), b("");
  EXPECT_TRUE(trace::read_dramsim2(a, RecoveryPolicy::kThrow).empty());
  EXPECT_TRUE(trace::read_champsim_csv(b, RecoveryPolicy::kThrow).empty());
}

// ---------------------------------------------------------------------------
// PLTB columnar container: the mapped reader must accept exactly what v1
// writers emit (32-byte header + 17 bytes per record, zero flags/reserved)
// and reject everything else.

/// One record per AccessType x DeviceId pair, so every meta packing is used.
TraceBatch every_meta_batch() {
  TraceBatch batch;
  std::uint64_t i = 0;
  for (const AccessType type : {AccessType::kRead, AccessType::kWrite}) {
    for (int d = 0; d < static_cast<int>(DeviceId::kCount); ++d) {
      batch.push_back(TraceRecord{0x40000 + (i << 6), 7 * i, type,
                                  static_cast<DeviceId>(d)});
      ++i;
    }
  }
  return batch;
}

std::string batch_image(const TraceBatch& batch) {
  std::ostringstream os(std::ios::binary);
  trace::write_batch(os, batch);
  return os.str();
}

class PltbNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("planaria-pltb-") + info->name() + ".pltb"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void put(const std::string& bytes) const {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
  }
  bool accepted(const std::string& bytes) const {
    put(bytes);
    try {
      MappedTraceBatch mapped(path_);
      return true;
    } catch (const std::runtime_error&) {
      return false;
    }
  }

  std::string path_;
};

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kFlagsOffset = 6;
constexpr std::size_t kCrcOffset = 16;
constexpr std::size_t kReserved0Offset = 20;
constexpr std::size_t kReserved1Offset = 24;

TEST_F(PltbNegative, WriteMapRoundTripCoversEveryMetaPacking) {
  const TraceBatch batch = every_meta_batch();
  ASSERT_EQ(batch.size(), 2u * static_cast<std::size_t>(DeviceId::kCount));
  trace::write_batch_file(path_, batch);
  const MappedTraceBatch mapped(path_);
  ASSERT_EQ(mapped.size(), batch.size());
  EXPECT_TRUE(mapped.to_batch() == batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(mapped.record(i), batch.record(i)) << "record " << i;
  }
  EXPECT_EQ(std::filesystem::file_size(path_),
            kHeaderBytes + 17 * batch.size());
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// A larger batch than every_meta_batch, so the payload CRC runs through the
/// word-at-a-time path on every column (8n, 8n and n bytes).
TraceBatch mixed_batch(std::size_t n) {
  TraceBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(TraceRecord{
        (0x9E3779B97F4A7C15ull * (i + 1)) & ~0x3Full, 3 * i + 1,
        i % 3 == 0 ? AccessType::kWrite : AccessType::kRead,
        static_cast<DeviceId>(i % static_cast<std::size_t>(DeviceId::kCount))});
  }
  return batch;
}

TEST_F(PltbNegative, StreamAndFileWritersEmitTheSameBytes) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    const TraceBatch batch = mixed_batch(n);
    trace::write_batch_file(path_, batch);
    EXPECT_EQ(read_bytes(path_), batch_image(batch)) << n << " records";
  }
}

TEST_F(PltbNegative, ImageMatchesTheDocumentedLayout) {
  // Header {magic, version, flags, count, payload CRC, 12 reserved bytes},
  // then the address, arrival and meta columns verbatim — assembled here
  // field by field so the writer cannot drift from the v1 format unnoticed.
  const TraceBatch batch = mixed_batch(257);
  const std::size_t n = batch.size();
  std::string payload(reinterpret_cast<const char*>(batch.addresses()),
                      n * sizeof(std::uint64_t));
  payload.append(reinterpret_cast<const char*>(batch.arrivals()),
                 n * sizeof(std::uint64_t));
  payload.append(reinterpret_cast<const char*>(batch.meta()), n);
  std::string expect(kHeaderBytes, '\0');
  const std::uint32_t magic = trace::kBatchMagic;
  const std::uint16_t version = trace::kBatchVersion;
  const std::uint64_t count = n;
  const std::uint32_t crc = reference_crc32(payload.data(), payload.size());
  std::memcpy(&expect[0], &magic, sizeof(magic));
  std::memcpy(&expect[4], &version, sizeof(version));
  std::memcpy(&expect[8], &count, sizeof(count));
  std::memcpy(&expect[kCrcOffset], &crc, sizeof(crc));
  EXPECT_EQ(batch_image(batch), expect + payload);
}

TEST_F(PltbNegative, EmptyBatchRoundTrips) {
  // Every column of an empty batch may have a null base pointer; the writer,
  // the CRC and the bulk-copy reader must all take that without touching it.
  const TraceBatch empty;
  trace::write_batch_file(path_, empty);
  EXPECT_EQ(std::filesystem::file_size(path_), kHeaderBytes);
  const MappedTraceBatch mapped(path_);
  EXPECT_TRUE(mapped.empty());
  EXPECT_TRUE(mapped.to_batch() == empty);
}

// The open-time checks and to_batch() walk each column kWindowRows rows at
// a time; a batch that ends just short of, on, or just past a window edge
// must round-trip, and every record must still read back through the
// mapping after its pages were released.
TEST_F(PltbNegative, RoundTripsAtWindowEdges) {
  constexpr std::size_t kWindow = MappedTraceBatch::kWindowRows;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kWindow - 1,
                              kWindow, kWindow + 1}) {
    const TraceBatch batch = mixed_batch(n);
    trace::write_batch_file(path_, batch);
    const MappedTraceBatch mapped(path_);
    ASSERT_EQ(mapped.size(), n);
    EXPECT_TRUE(mapped.to_batch() == batch) << n << " records";
    for (std::size_t i = 0; i < n; i += n / 7 + 1) {
      EXPECT_EQ(mapped.record(i), batch.record(i)) << n << " records, #" << i;
    }
    if (n > 0) {
      EXPECT_EQ(mapped.record(n - 1), batch.record(n - 1));
    }
  }
}

// A flip in the last window of each column is caught by the windowed CRC,
// so the scan must reach the end of every column.
TEST_F(PltbNegative, ByteFlipInTheLastWindowIsRejected) {
  constexpr std::size_t kWindow = MappedTraceBatch::kWindowRows;
  const std::size_t n = 2 * kWindow + 5;
  const std::string full = batch_image(mixed_batch(n));
  ASSERT_TRUE(accepted(full));
  // The last row of each column: addresses, arrivals, meta.
  for (const std::size_t at :
       {kHeaderBytes + 8 * n - 1, kHeaderBytes + 16 * n - 1, full.size() - 1}) {
    std::string damaged = full;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    EXPECT_FALSE(accepted(damaged)) << "byte " << at;
  }
}

// Released pages are read again from the file, so a file rewritten in place
// after open must not reach the caller as a trace: to_batch() re-checks.
TEST_F(PltbNegative, FileRewrittenAfterOpenMakesToBatchThrow) {
  constexpr std::size_t kWindow = MappedTraceBatch::kWindowRows;
  const std::size_t n = kWindow + 9;
  const TraceBatch batch = mixed_batch(n);
  trace::write_batch_file(path_, batch);
  const MappedTraceBatch mapped(path_);
  // One arrival byte in the second window, rewritten in the same inode.
  const std::size_t at = kHeaderBytes + 8 * n + 8 * kWindow;
  const char original = read_bytes(path_)[at];
  const auto poke = [&](char byte) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(byte);
    ASSERT_TRUE(f.good());
  };
  poke(static_cast<char>(original ^ 0x5A));
  EXPECT_THROW((void)mapped.to_batch(), std::runtime_error);
  // Restored, the same mapping copies out the checked payload again.
  poke(original);
  EXPECT_TRUE(mapped.to_batch() == batch);
}

#if defined(__linux__)
/// Rss of the mapping that contains `p`, in bytes, from /proc/self/smaps;
/// -1 when it cannot be read.
long long mapping_rss_bytes(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long long lo = 0;
    unsigned long long hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = at >= lo && at < hi;
      continue;
    }
    long long kb = 0;
    if (inside && std::sscanf(line.c_str(), "Rss: %lld kB", &kb) == 1) {
      return kb * 1024;
    }
  }
  return -1;
}

// About one window of the file stays resident: after the open-time scan and
// after to_batch(), the mapping holds no more than one window's bytes.
TEST_F(PltbNegative, MappingRssStaysWithinOneWindow) {
  constexpr std::size_t kWindow = MappedTraceBatch::kWindowRows;
  const std::size_t n = 8 * kWindow + 3;
  const TraceBatch batch = mixed_batch(n);
  trace::write_batch_file(path_, batch);
  const MappedTraceBatch mapped(path_);
  const long long window_bytes = static_cast<long long>(17 * kWindow);
  const long long after_open = mapping_rss_bytes(mapped.addresses());
  if (after_open < 0) GTEST_SKIP() << "/proc/self/smaps is not readable";
  EXPECT_LE(after_open, window_bytes);
  EXPECT_TRUE(mapped.to_batch() == batch);
  EXPECT_LE(mapping_rss_bytes(mapped.addresses()), window_bytes);
}
#endif

TEST_F(PltbNegative, EveryTruncationIsRejected) {
  const std::string full = batch_image(every_meta_batch());
  ASSERT_TRUE(accepted(full));
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(accepted(full.substr(0, len))) << "truncated to " << len;
  }
}

TEST_F(PltbNegative, EverySingleByteFlipIsRejected) {
  const std::string full = batch_image(every_meta_batch());
  for (std::size_t at = 0; at < full.size(); ++at) {
    for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      std::string damaged = full;
      damaged[at] = static_cast<char>(damaged[at] ^ static_cast<char>(mask));
      EXPECT_FALSE(accepted(damaged))
          << "byte " << at << " xor 0x" << std::hex << mask;
    }
  }
}

TEST_F(PltbNegative, BadDeviceIdWithRecomputedCrcIsRejected) {
  const TraceBatch batch = every_meta_batch();
  std::string image = batch_image(batch);
  // Meta column: the last `count` bytes. Device id DeviceId::kCount is one
  // past the last valid id; the CRC is recomputed so only the range check can
  // catch it.
  const std::size_t meta_at = image.size() - batch.size();
  image[meta_at] = static_cast<char>(
      static_cast<std::uint8_t>(DeviceId::kCount) << 1);
  const std::uint32_t crc = reference_crc32(image.data() + kHeaderBytes,
                                            image.size() - kHeaderBytes);
  std::memcpy(&image[kCrcOffset], &crc, sizeof(crc));
  put(image);
  try {
    MappedTraceBatch mapped(path_);
    FAIL() << "accepted an out-of-range device id";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad device id"), std::string::npos)
        << e.what();
  }
}

TEST_F(PltbNegative, TrailingBytesAreRejected) {
  const std::string full = batch_image(every_meta_batch());
  EXPECT_FALSE(accepted(full + std::string(1, '\0')));
  EXPECT_FALSE(accepted(full + std::string(17, '\0')));
}

TEST_F(PltbNegative, ConcatenatedContainersAreRejected) {
  const std::string full = batch_image(every_meta_batch());
  EXPECT_FALSE(accepted(full + full));
}

TEST_F(PltbNegative, NonZeroFlagsAreRejected) {
  std::string image = batch_image(every_meta_batch());
  image[kFlagsOffset] = 1;
  EXPECT_FALSE(accepted(image));
}

TEST_F(PltbNegative, NonZeroReservedFieldsAreRejected) {
  const std::string full = batch_image(every_meta_batch());
  for (const std::size_t at : {kReserved0Offset, kReserved1Offset}) {
    std::string image = full;
    image[at] = 1;
    EXPECT_FALSE(accepted(image)) << "reserved byte " << at;
  }
}

}  // namespace
