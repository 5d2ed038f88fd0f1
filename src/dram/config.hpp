// LPDDR4 geometry and timing configuration.
//
// Timing values default to the paper's Table 1 (all in memory-controller
// clock cycles): tRAS=51, tRCD=16, tRRD=12, tRC=76, tRP=16, tCCD=8, tRTP=9,
// tWTR=12, tWR=22, tRTRS=2, tRFC=216, tFAW=48, tCKE=9, tXP=9, tCMD=1,
// burst length 16. The table omits CAS latencies and the refresh interval;
// we fill those from the LPDDR4-3200 speed grade the table's values imply
// (RL=28, WL=14, tREFI approx 3.9us at 1.6 GHz controller clock).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/types.hpp"

namespace planaria::dram {

struct TimingConfig {
  // --- Table 1 values ---
  int tRAS = 51;   ///< ACT -> PRE, same bank
  int tRCD = 16;   ///< ACT -> RD/WR, same bank
  int tRRD = 12;   ///< ACT -> ACT, different banks, same rank
  int tRC = 76;    ///< ACT -> ACT, same bank
  int tRP = 16;    ///< PRE -> ACT, same bank
  int tCCD = 8;    ///< RD -> RD / WR -> WR burst spacing (= burst cycles)
  int tRTP = 9;    ///< RD -> PRE, same bank
  int tWTR = 12;   ///< end of write data -> RD, same rank
  int tWR = 22;    ///< end of write data -> PRE, same bank
  int tRTRS = 2;   ///< rank-to-rank / read-to-write bus turnaround pad
  int tRFC = 216;  ///< all-bank refresh cycle time
  int tFAW = 48;   ///< four-activate window
  int tCKE = 9;    ///< CKE minimum pulse (power-down entry)
  int tXP = 9;     ///< power-down exit -> any command
  int tCMD = 1;    ///< command bus occupancy
  int burst_length = 16;  ///< BL16, double data rate => 8 bus clocks of data

  // --- filled-in LPDDR4-3200 values (not in Table 1) ---
  int tCL = 28;    ///< read latency (RL)
  int tCWL = 14;   ///< write latency (WL)
  int tREFI = 6240;  ///< average all-bank refresh interval (~3.9us @ 1.6GHz)
  int tRFCpb = 108;  ///< per-bank refresh cycle time (~half of tRFCab)

  /// Data-bus clocks one burst occupies (DDR: BL/2).
  int burst_cycles() const { return burst_length / 2; }

  /// Throws std::invalid_argument if any constraint is non-positive or
  /// mutually inconsistent (e.g. tRC < tRAS + tRP).
  void validate() const;
};

struct GeometryConfig {
  int channels = kChannels;  ///< Table 1: 4 channels
  int ranks = 1;             ///< 1 rank per channel
  int banks = 8;             ///< 8 banks per channel
  int rows = 1 << 15;        ///< rows per bank
  int blocks_per_row = 32;   ///< 2KB row / 64B blocks

  void validate() const;
};

/// Per-channel read/write queue sizing and scheduling policy knobs.
struct ControllerConfig {
  int read_queue_depth = 64;
  int write_queue_depth = 64;
  int write_drain_high = 48;  ///< start draining writes at this occupancy
  int write_drain_low = 16;   ///< stop draining at this occupancy
  int max_postponed_refreshes = 8;  ///< LPDDR4 allows postponing up to 8
  int powerdown_idle_threshold = 128;  ///< idle cycles before CKE-low entry
                                       ///< (controller policy; >= tCKE)
  bool per_bank_refresh = false;  ///< REFpb instead of REFab: one bank at a
                                  ///< time at banks-times the rate, leaving
                                  ///< the other banks serving (the LPDDR4
                                  ///< feature mobile controllers lean on)

  void validate() const;
};

struct DramConfig {
  TimingConfig timing;
  GeometryConfig geometry;
  ControllerConfig controller;

  void validate() const {
    timing.validate();
    geometry.validate();
    controller.validate();
  }
};

/// Physical location of a block within one channel.
struct BlockLocation {
  int rank = 0;
  int bank = 0;
  std::uint32_t row = 0;
  int column = 0;  ///< block index within the row
};

/// Maps a channel-local block index to (rank, bank, row, column) with
/// column:bank:rank:row ordering (low bits = column) so that consecutive
/// pages interleave across banks (and ranks, when present) and sequential
/// traffic earns row hits. Table 1 uses 1 rank per channel; the rank digit
/// then decodes to 0 everywhere and the layout is unchanged. Every geometry
/// digit is a power of two (GeometryConfig::validate), so each digit is a
/// shift and a mask, the same value as the mixed-radix division formula.
// lint: suppress(snapshot-missing) the digit widths are derived from config at construction; nothing mutates
class AddressMapper {
 public:
  explicit AddressMapper(const GeometryConfig& g)
      : column_bits_(log2(g.blocks_per_row)),
        bank_bits_(log2(g.banks)),
        rank_bits_(log2(g.ranks)),
        row_mask_(static_cast<std::uint64_t>(g.rows) - 1) {
    g.validate();
  }

  BlockLocation map(std::uint64_t local_block) const {
    BlockLocation loc;
    loc.column = static_cast<int>(local_block & low_mask(column_bits_));
    std::uint64_t rest = local_block >> column_bits_;
    loc.bank = static_cast<int>(rest & low_mask(bank_bits_));
    rest >>= bank_bits_;
    loc.rank = static_cast<int>(rest & low_mask(rank_bits_));
    rest >>= rank_bits_;
    loc.row = static_cast<std::uint32_t>(rest & row_mask_);
    return loc;
  }

  /// Channel-local block index for a physical address: the two channel-select
  /// bits [11:10] are removed, concatenating page number with the 4-bit
  /// block-in-segment index.
  static std::uint64_t local_block(Address a) {
    return (addr::page_number(a) << 4) |
           static_cast<std::uint64_t>(addr::block_in_segment(a));
  }

 private:
  static int log2(int power_of_two) {
    return __builtin_ctz(static_cast<unsigned>(power_of_two));
  }
  static std::uint64_t low_mask(int bits) {
    return (std::uint64_t{1} << bits) - 1;
  }

  int column_bits_;
  int bank_bits_;
  int rank_bits_;
  std::uint64_t row_mask_;
};

}  // namespace planaria::dram
