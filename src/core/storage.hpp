// Bit-exact storage accounting for Planaria's metadata.
//
// Replaces the paper's Verilog-synthesis area estimate: the prefetcher's
// area is dominated by its SRAM tables, which we can account field by field.
// The paper reports 345.2KB total (8.4% of the 4MB SC); the default
// configuration here lands in the same regime (the storage table of
// bench_experiments prints it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/planaria.hpp"

namespace planaria::core {

struct StorageItem {
  std::string name;        ///< table name, e.g. "PT (pattern history)"
  std::uint64_t entries;   ///< entries per channel
  std::uint64_t bits_per_entry;
  std::uint64_t bits() const { return entries * bits_per_entry; }
};

struct StorageBreakdown {
  std::vector<StorageItem> items;  ///< per one channel

  std::uint64_t per_channel_bits() const;
  std::uint64_t total_bits(int channels = kChannels) const;
  double total_kb(int channels = kChannels) const;
  /// Fraction of a system cache of `sc_bytes` this metadata occupies.
  double fraction_of_sc(std::uint64_t sc_bytes, int channels = kChannels) const;
};

/// Field-by-field accounting of one channel's SLP + TLP tables.
StorageBreakdown planaria_storage(const PlanariaConfig& config = {});

}  // namespace planaria::core
