// Structure-of-arrays trace storage: the one in-memory form of a trace.
//
// The simulator's inner loops touch exactly three things per record: the
// address (channel routing + cache/prefetcher coordinates), the arrival cycle
// (DRAM clock advance) and the access metadata (read/write + device). A
// TraceRecord row pads those to 24 bytes; TraceBatch stores them as three
// parallel columns — u64 addresses, u64 arrivals, one packed meta byte — at
// 17 bytes per record, each column prefetching independently. The generator,
// every reader and every analysis build or take batches; TraceRecord is only
// the value of one row (record(i), push_back).
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

  /// An empty batch with room for `n` records, its columns advised for huge
  /// pages before the first write: the start of every whole-trace builder.
  /// reserve() alone does not advise, because it also sizes the simulator's
  /// per-channel shards on every run_sharded call, and those keep and reuse
  /// their capacity.
  static TraceBatch with_capacity(std::size_t n) {
    TraceBatch out;
    out.reserve(n);
    common::advise_huge_pages(out.addresses_.data(), n * sizeof(Address));
    common::advise_huge_pages(out.arrivals_.data(), n * sizeof(Cycle));
    common::advise_huge_pages(out.meta_.data(), n);
    return out;
  }

  /// Appends `n` records held as three columns (one memcpy-class copy per
  /// column). Every meta byte must already be a valid packing — the PLTB
  /// reader range-checks the whole column at open before calling this.
  void append_columns(const Address* addresses, const Cycle* arrivals,
                      const std::uint8_t* meta, std::size_t n) {
    addresses_.insert(addresses_.end(), addresses, addresses + n);
    arrivals_.insert(arrivals_.end(), arrivals, arrivals + n);
    meta_.insert(meta_.end(), meta, meta + n);
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

  friend bool operator==(const TraceBatch&, const TraceBatch&) = default;

 private:
  std::vector<Address> addresses_;
  std::vector<Cycle> arrivals_;
  std::vector<std::uint8_t> meta_;
};

}  // namespace planaria::trace
