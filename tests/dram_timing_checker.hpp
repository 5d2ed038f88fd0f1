// Independent LPDDR4 timing checker for DramChannel command logs.
//
// Replays a command log (dram::DramChannel::set_command_log) through its own
// per-bank and per-rank state, rebuilt from the commands alone, and reports
// every Table 1 constraint the stream breaks. It never reads the scheduler's
// horizons (act_allowed, next_read_ok_, ...): a rule the scheduler forgets to
// enforce shows up here as a violation instead of being checked against
// itself. Test-only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dram/channel.hpp"
#include "dram/config.hpp"

namespace planaria::dram::testing {

struct TimingViolation {
  std::string rule;       ///< "tRCD", "tFAW", "burst", "state", ...
  std::size_t index = 0;  ///< log entry that broke it
  Cycle cycle = 0;
};

class TimingChecker {
 public:
  explicit TimingChecker(const DramConfig& config)
      : t_(config.timing),
        banks_per_rank_(config.geometry.banks),
        banks_(static_cast<std::size_t>(config.geometry.ranks) *
               static_cast<std::size_t>(config.geometry.banks)),
        ranks_(static_cast<std::size_t>(config.geometry.ranks)) {}

  std::vector<TimingViolation> check(const std::vector<CommandRecord>& log) {
    for (index_ = 0; index_ < log.size(); ++index_) step(log[index_]);
    return violations_;
  }

 private:
  struct BankState {
    bool open = false;
    std::uint32_t row = 0;
    std::optional<Cycle> act, pre, read, write_data_end;
    Cycle refresh_done = 0;  ///< REFab/REFpb busy window end
    bool refresh_pb = false; ///< refresh_done came from a REFpb
  };
  struct RankState {
    std::vector<Cycle> acts;  ///< every ACT, oldest first
    std::optional<Cycle> read, write, write_data_end;
  };
  struct Burst {
    Cycle start = 0;
    Cycle end = 0;
    int rank = 0;
    bool is_read = false;
  };

  void fail(const char* rule, Cycle at) {
    violations_.push_back(TimingViolation{rule, index_, at});
  }
  /// Fails `rule` when `at` is earlier than `earlier + gap`.
  void need(const char* rule, Cycle at, std::optional<Cycle> earlier, int gap) {
    if (earlier && at < *earlier + static_cast<Cycle>(gap)) fail(rule, at);
  }
  BankState& bank(int rank, int b) {
    return banks_[static_cast<std::size_t>(rank * banks_per_rank_ + b)];
  }

  void step(const CommandRecord& c) {
    const Cycle at = c.cycle;
    if (c.command == Command::kPowerDownEntry) {
      if (powered_down_) fail("state", at);
      if (at < last_command_) fail("state", at);  // entered mid-command
      need("tCKE", at, last_exit_, t_.tCKE);  // minimum CKE-high pulse
      powered_down_ = true;
      last_entry_ = at;
      return;
    }
    if (c.command == Command::kPowerDownExit) {
      if (!powered_down_) fail("state", at);
      need("tCKE", at, last_entry_, t_.tCKE);  // minimum CKE-low pulse
      powered_down_ = false;
      last_exit_ = at;
      return;
    }
    if (powered_down_) fail("state", at);
    need("tXP", at, last_exit_, t_.tXP);
    last_command_ = std::max(last_command_, at);

    switch (c.command) {
      case Command::kActivate: activate(c); break;
      case Command::kPrecharge: precharge(bank(c.rank, c.bank), at); break;
      case Command::kPrechargeAll:
        for (BankState& b : banks_) {
          if (b.open) precharge(b, at);
        }
        break;
      case Command::kRead:
      case Command::kWrite: read_write(c); break;
      case Command::kRefresh:
        for (BankState& b : banks_) refresh(b, at, t_.tRFC, false);
        break;
      case Command::kRefreshBank:
        refresh(bank(c.rank, c.bank), at, t_.tRFCpb, true);
        break;
      default: break;
    }
  }

  void activate(const CommandRecord& c) {
    const Cycle at = c.cycle;
    BankState& b = bank(c.rank, c.bank);
    if (b.open) fail("state", at);
    need("tRP", at, b.pre, t_.tRP);
    need("tRC", at, b.act, t_.tRC);
    if (at < b.refresh_done) fail(b.refresh_pb ? "tRFCpb" : "tRFC", at);
    RankState& r = ranks_[static_cast<std::size_t>(c.rank)];
    if (!r.acts.empty()) need("tRRD", at, r.acts.back(), t_.tRRD);
    if (r.acts.size() >= 4) {
      need("tFAW", at, r.acts[r.acts.size() - 4], t_.tFAW);
    }
    r.acts.push_back(at);
    b.open = true;
    b.row = c.row;
    b.act = at;
  }

  void precharge(BankState& b, Cycle at) {
    if (!b.open) fail("state", at);
    need("tRAS", at, b.act, t_.tRAS);
    need("tRTP", at, b.read, t_.tRTP);
    need("tWR", at, b.write_data_end, t_.tWR);
    b.open = false;
    b.pre = at;
  }

  void refresh(BankState& b, Cycle at, int busy, bool per_bank) {
    if (b.open) fail("state", at);
    need("tRP", at, b.pre, t_.tRP);
    if (at < b.refresh_done) fail(b.refresh_pb ? "tRFCpb" : "tRFC", at);
    b.refresh_done = at + static_cast<Cycle>(busy);
    b.refresh_pb = per_bank;
  }

  void read_write(const CommandRecord& c) {
    const Cycle at = c.cycle;
    const bool is_read = c.command == Command::kRead;
    BankState& b = bank(c.rank, c.bank);
    if (!b.open || b.row != c.row) fail("state", at);
    need("tRCD", at, b.act, t_.tRCD);
    RankState& r = ranks_[static_cast<std::size_t>(c.rank)];
    const auto burst = static_cast<Cycle>(t_.burst_cycles());
    Burst data;
    data.rank = c.rank;
    data.is_read = is_read;
    if (is_read) {
      need("tCCD", at, r.read, t_.tCCD);
      need("tWTR", at, r.write_data_end, t_.tWTR);
      data.start = at + static_cast<Cycle>(t_.tCL);
      r.read = at;
      b.read = at;
    } else {
      need("tCCD", at, r.write, t_.tCCD);
      data.start = at + static_cast<Cycle>(t_.tCWL);
      r.write = at;
    }
    data.end = data.start + burst;
    if (!is_read) {
      r.write_data_end = data.end;
      b.write_data_end = data.end;
    }
    // BL16 occupancy: no two bursts share a data-bus cycle. Turnarounds: a
    // rank switch, and a write after a read, leave tRTRS of idle bus.
    for (std::size_t i = bursts_.size() > 16 ? bursts_.size() - 16 : 0;
         i < bursts_.size(); ++i) {
      const Burst& p = bursts_[i];
      if (data.start < p.end && p.start < data.end) fail("burst", at);
      const bool turnaround = p.rank != data.rank || (p.is_read && !is_read);
      if (turnaround && data.start >= p.start &&
          data.start < p.end + static_cast<Cycle>(t_.tRTRS)) {
        fail("tRTRS", at);
      }
    }
    bursts_.push_back(data);
  }

  TimingConfig t_;
  int banks_per_rank_;
  std::vector<BankState> banks_;
  std::vector<RankState> ranks_;
  std::vector<Burst> bursts_;
  bool powered_down_ = false;
  std::optional<Cycle> last_entry_, last_exit_;
  Cycle last_command_ = 0;
  std::size_t index_ = 0;
  std::vector<TimingViolation> violations_;
};

/// Every violation in `log` under `config`'s timing and geometry.
inline std::vector<TimingViolation> check_timing(
    const std::vector<CommandRecord>& log, const DramConfig& config) {
  return TimingChecker(config).check(log);
}

}  // namespace planaria::dram::testing
