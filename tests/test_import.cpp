// Tests for the public-format trace importers (DRAMSim2 .trc, ChampSim CSV).
#include <gtest/gtest.h>

#include <sstream>

#include "batch_of.hpp"
#include "trace/import.hpp"

namespace planaria::trace {
namespace {

// ----------------------------------------------------------------- dramsim2

TEST(DramSim2Import, ParsesReadsAndWrites) {
  std::stringstream ss(
      "0x7f0000001000 P_MEM_RD 100\n"
      "0x7f0000002040 P_MEM_WR 250\n");
  const auto records = read_dramsim2(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.addresses()[0], 0x7f0000001000u);
  EXPECT_EQ(records.record(0).type, AccessType::kRead);
  EXPECT_EQ(records.arrivals()[0], 100u);
  EXPECT_EQ(records.record(1).type, AccessType::kWrite);
}

TEST(DramSim2Import, SkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "; DRAMSim2 trace\n"
      "\n"
      "   ; indented comment\n"
      "0x1000 P_MEM_RD 5\n");
  EXPECT_EQ(read_dramsim2(ss).size(), 1u);
}

TEST(DramSim2Import, AcceptsFetchAndBoff) {
  std::stringstream ss(
      "0x1000 P_FETCH 1\n"
      "0x2000 BOFF 2\n");
  const auto records = read_dramsim2(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.record(0).type, AccessType::kRead);
  EXPECT_EQ(records.record(1).type, AccessType::kRead);
}

TEST(DramSim2Import, RejectsUnknownType) {
  std::stringstream ss("0x1000 P_MEM_ZAP 1\n");
  EXPECT_THROW(read_dramsim2(ss), std::runtime_error);
}

TEST(DramSim2Import, RejectsMalformedLine) {
  std::stringstream ss("0x1000 P_MEM_RD\n");
  EXPECT_THROW(read_dramsim2(ss), std::runtime_error);
}

TEST(DramSim2Import, RejectsBadAddress) {
  std::stringstream ss("zzzz P_MEM_RD 1\n");
  EXPECT_THROW(read_dramsim2(ss), std::runtime_error);
}

TEST(DramSim2Import, SortsOutOfOrderArrivals) {
  std::stringstream ss(
      "0x1000 P_MEM_RD 50\n"
      "0x2000 P_MEM_RD 10\n");
  const auto records = read_dramsim2(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LE(records.arrivals()[0], records.arrivals()[1]);
}

TEST(DramSim2Import, RoundTripsThroughWriter) {
  const TraceBatch records = test_util::batch_of({
      {0x1000, 10, AccessType::kRead, DeviceId::kCpuBig},
      {0x2040, 20, AccessType::kWrite, DeviceId::kCpuBig},
  });
  std::stringstream ss;
  write_dramsim2(ss, records);
  EXPECT_EQ(read_dramsim2(ss), records);
}

TEST(DramSim2Import, AlignsAddressesToBlocks) {
  std::stringstream ss("0x1033 P_MEM_RD 1\n");
  const auto records = read_dramsim2(ss);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.addresses()[0], 0x1000u);
}

TEST(DramSim2Import, MissingFileThrows) {
  EXPECT_THROW(read_dramsim2_file("/nonexistent/x.trc"), std::runtime_error);
}

// ----------------------------------------------------------------- champsim

TEST(ChampSimImport, ParsesCsvRows) {
  std::stringstream ss(
      "0x1000,0,100\n"
      "8256,1,200\n");
  const auto records = read_champsim_csv(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.addresses()[0], 0x1000u);
  EXPECT_EQ(records.record(0).type, AccessType::kRead);
  EXPECT_EQ(records.addresses()[1], addr::block_align(8256));
  EXPECT_EQ(records.record(1).type, AccessType::kWrite);
}

TEST(ChampSimImport, SkipsHeaderAndComments) {
  std::stringstream ss(
      "address,is_write,cycle\n"
      "# comment\n"
      "0x40,0,1\n");
  EXPECT_EQ(read_champsim_csv(ss).size(), 1u);
}

TEST(ChampSimImport, RejectsMalformedRow) {
  std::stringstream ss("0x40,0\n");
  EXPECT_THROW(read_champsim_csv(ss), std::runtime_error);
}

TEST(ChampSimImport, RejectsGarbageFields) {
  std::stringstream ss("0x40,maybe,7\n");
  EXPECT_THROW(read_champsim_csv(ss), std::runtime_error);
}

TEST(ChampSimImport, SortsByArrival) {
  std::stringstream ss(
      "0x40,0,90\n"
      "0x80,0,10\n");
  const auto records = read_champsim_csv(ss);
  EXPECT_LE(records.arrivals()[0], records.arrivals()[1]);
}

}  // namespace
}  // namespace planaria::trace
