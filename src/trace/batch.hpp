// Structure-of-arrays trace storage (the hot-path spine).
//
// The simulator's inner loops touch exactly three things per record: the
// address (channel routing + cache/prefetcher coordinates), the arrival cycle
// (DRAM clock advance) and the access metadata (read/write + device). The
// AoS TraceRecord keeps those in one padded 24-byte struct, so a sweep cell
// streaming a trace drags a third of each cache line as padding. TraceBatch
// stores the same records as three parallel columns — u64 addresses, u64
// arrivals, one packed meta byte — cutting the bytes-per-record the spine
// streams from 24 to 17 and letting each column prefetch independently.
//
// Meta packing: bit 0 = access type (1 = write), bits 1..7 = device id. Both
// enums are validated on unpack by construction (pack_meta is the only
// producer inside the library; the binary reader in trace/io re-validates).
#pragma once

#include <cstdint>
#include <vector>

#include "common/huge_pages.hpp"
#include "trace/record.hpp"

namespace planaria::trace {

class TraceBatch {
 public:
  TraceBatch() = default;
  explicit TraceBatch(const std::vector<TraceRecord>& records) {
    reserve(records.size());
    advise_huge_pages();
    for (const TraceRecord& rec : records) push_back(rec);
  }

  /// Bulk copy of `n` records held as three columns (one memcpy-class copy
  /// per column). Every meta byte must already be a valid packing — the PLTB
  /// reader range-checks the whole column at open before calling this.
  static TraceBatch from_columns(const Address* addresses,
                                 const Cycle* arrivals,
                                 const std::uint8_t* meta, std::size_t n) {
    TraceBatch out;
    out.reserve(n);
    out.advise_huge_pages();
    out.addresses_.assign(addresses, addresses + n);
    out.arrivals_.assign(arrivals, arrivals + n);
    out.meta_.assign(meta, meta + n);
    return out;
  }

  static std::uint8_t pack_meta(AccessType type, DeviceId device) {
    return static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(device) << 1) |
        (type == AccessType::kWrite ? 1u : 0u));
  }
  static AccessType meta_type(std::uint8_t meta) {
    return (meta & 1u) != 0 ? AccessType::kWrite : AccessType::kRead;
  }
  static DeviceId meta_device(std::uint8_t meta) {
    return static_cast<DeviceId>(meta >> 1);
  }

  void push_back(const TraceRecord& rec) {
    addresses_.push_back(rec.address);
    arrivals_.push_back(rec.arrival);
    meta_.push_back(pack_meta(rec.type, rec.device));
  }

  void reserve(std::size_t n) {
    addresses_.reserve(n);
    arrivals_.reserve(n);
    meta_.reserve(n);
  }

  void clear() {
    addresses_.clear();
    arrivals_.clear();
    meta_.clear();
  }

  std::size_t size() const { return addresses_.size(); }
  bool empty() const { return addresses_.empty(); }

  const Address* addresses() const { return addresses_.data(); }
  const Cycle* arrivals() const { return arrivals_.data(); }
  const std::uint8_t* meta() const { return meta_.data(); }

  /// Reassembles record `i` (bounds unchecked — hot path).
  TraceRecord record(std::size_t i) const {
    return TraceRecord{addresses_[i], arrivals_[i], meta_type(meta_[i]),
                       meta_device(meta_[i])};
  }

  /// AoS round-trip, for interchange with the record-based APIs.
  std::vector<TraceRecord> to_records() const {
    std::vector<TraceRecord> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) out.push_back(record(i));
    return out;
  }

  friend bool operator==(const TraceBatch&, const TraceBatch&) = default;

 private:
  /// First-touch advice on freshly reserved, still unwritten columns. Only
  /// the two whole-trace constructors call it: reserve() also sizes the
  /// simulator's per-channel shards on every run_sharded call, and those
  /// keep and reuse their capacity.
  void advise_huge_pages() const {
    common::advise_huge_pages(addresses_.data(),
                              addresses_.capacity() * sizeof(Address));
    common::advise_huge_pages(arrivals_.data(),
                              arrivals_.capacity() * sizeof(Cycle));
    common::advise_huge_pages(meta_.data(), meta_.capacity());
  }

  std::vector<Address> addresses_;
  std::vector<Cycle> arrivals_;
  std::vector<std::uint8_t> meta_;
};

}  // namespace planaria::trace
