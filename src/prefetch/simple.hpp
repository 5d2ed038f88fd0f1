// Simple reference prefetchers: next-line and per-device stride.
//
// Not evaluated in the paper, but standard yardsticks: they bound what a
// trivial amount of state buys at the SC level, and the test suite uses them
// as well-understood behaviours to validate the simulator plumbing.
#pragma once

#include <cstdint>

#include "prefetch/prefetcher.hpp"

namespace planaria::prefetch {

/// Prefetches the next `degree` sequential blocks on every demand miss.
// lint: suppress(snapshot-missing) degree_ is a config constant; the base class no-op codec is exact
class NextLinePrefetcher final : public Prefetcher {
 public:
  explicit NextLinePrefetcher(int degree = 1);

  void on_demand(const DemandEvent& event,
                 std::vector<PrefetchRequest>& out) override;
  const char* name() const override { return "next-line"; }
  std::uint64_t storage_bits() const override { return 0; }

 private:
  int degree_;
};

/// Classic two-miss stride detector, keyed by device id — the closest thing
/// to a per-stream context that exists without a PC on the memory side.
class StridePrefetcher final : public Prefetcher {
 public:
  explicit StridePrefetcher(int degree = 2);

  void on_demand(const DemandEvent& event,
                 std::vector<PrefetchRequest>& out) override;
  const char* name() const override { return "stride"; }
  std::uint64_t storage_bits() const override;

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  struct Stream {
    std::uint64_t last_block = 0;
    std::int64_t stride = 0;
    int confidence = 0;  ///< 0..3; issue at >= 2
    bool valid = false;
  };

  int degree_;
  Stream streams_[static_cast<int>(DeviceId::kCount)];
};

}  // namespace planaria::prefetch
