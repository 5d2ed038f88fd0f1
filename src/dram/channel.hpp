// Cycle-level LPDDR4 channel controller.
//
// Models one of the four channels of Table 1's memory system: 8 banks with
// full state machines (ACT/PRE/RD/WR/REFab), every timing constraint from the
// TimingConfig, FR-FCFS scheduling with demand-over-prefetch priority and an
// anti-starvation age cap, buffered writes with high/low watermark draining,
// write-to-read forwarding, and all-bank refresh with LPDDR4-style
// postponement. The simulation is event-driven: time jumps straight to the
// next issuable command, so idle periods cost nothing.
//
// The controller is open-loop (trace-driven): demand requests are always
// accepted (an over-full read queue is counted, mirroring a stalled-bus
// condition), while prefetch requests are *dropped* when the queue is
// saturated — that drop is the natural throttle that keeps a prefetcher from
// monopolizing the channel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/block_map.hpp"
#include "common/types.hpp"
#include "dram/config.hpp"
#include "snapshot/snapshot.hpp"

namespace planaria::dram {

struct DramRequest {
  std::uint64_t local_block = 0;  ///< channel-local block index
  Cycle arrival = 0;
  bool is_write = false;
  bool is_prefetch = false;
  std::uint64_t tag = 0;          ///< caller-chosen completion correlation id
};

struct DramCompletion {
  std::uint64_t tag = 0;
  Cycle arrival = 0;
  Cycle finish = 0;     ///< cycle the data burst completes
  bool is_write = false;
  bool is_prefetch = false;
  bool row_hit = false;
  bool forwarded = false;  ///< read served from the write queue
};

/// Raw command/occupancy counts consumed by the power model.
struct ChannelCounters {
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;      ///< all-bank REFab commands
  std::uint64_t refreshes_pb = 0;   ///< per-bank REFpb commands
  std::uint64_t row_hits = 0;       ///< RD/WR issued to an already-open row
  std::uint64_t row_misses = 0;     ///< RD/WR that needed ACT (+PRE) first
  std::uint64_t demand_reads = 0;
  std::uint64_t prefetch_reads = 0;
  std::uint64_t prefetch_drops = 0; ///< prefetches rejected by a full queue
  std::uint64_t read_queue_overflows = 0;
  std::uint64_t forwarded_reads = 0;
  std::uint64_t powerdown_entries = 0;  ///< CKE-low entries (idle > tCKE)
  Cycle powerdown_cycles = 0;           ///< cycles spent powered down
  Cycle elapsed = 0;                ///< total simulated time
  Cycle busy_data_cycles = 0;       ///< cycles the data bus carried a burst
};

/// What one command-log entry records (DramChannel::set_command_log).
enum class Command : std::uint8_t {
  kActivate,
  kPrecharge,
  kPrechargeAll,   ///< PREab ahead of an all-bank refresh
  kRead,
  kWrite,
  kRefresh,        ///< REFab
  kRefreshBank,    ///< REFpb
  kPowerDownEntry, ///< CKE low
  kPowerDownExit,  ///< CKE high; the next command waits tXP
};

/// One command-log entry. All-bank commands and power-down transitions
/// cover the whole channel and carry rank = bank = -1.
struct CommandRecord {
  Cycle cycle = 0;
  Command command = Command::kActivate;
  int rank = -1;
  int bank = -1;
  std::uint32_t row = 0;  ///< ACT/RD/WR only
};

class DramChannel {
 public:
  explicit DramChannel(const DramConfig& config);

  /// Queues a request. `request.arrival` must be >= the time already advanced
  /// to. Returns false iff a prefetch was dropped due to queue saturation.
  bool submit(const DramRequest& request);

  /// Simulates command issue up to (and including) cycle `until`.
  void advance(Cycle until);

  /// Simulates until every queued request has completed.
  void drain();

  /// Fault-injection hook: holds the command bus idle for `cycles` from the
  /// current time, modelling a transient controller stall (thermal throttle,
  /// link retrain). Queued requests are preserved and issue once the stall
  /// lifts; only timing shifts, so no contract can fire from this class.
  void inject_stall(Cycle cycles) {
    next_cmd_ok_ = std::max(next_cmd_ok_, now_ + cycles);
    next_event_valid_ = false;
  }

  /// Completions accumulated since the last call (sorted by finish cycle).
  /// The sink overload swaps the pending buffer into `out` (cleared first),
  /// so a caller that reuses one scratch vector ping-pongs two allocations
  /// for the channel's whole lifetime instead of reallocating every step.
  void take_completions(std::vector<DramCompletion>& out);
  std::vector<DramCompletion> take_completions();

  /// True iff a data burst (or forwarded read) landed since the last
  /// take_completions(). Lets the per-record step skip the drain call on the
  /// many steps where nothing finished.
  bool has_completions() const { return !completions_.empty(); }

  /// Test hook: while `log` is non-null, every command the channel issues
  /// and every power-down entry and exit is appended to it in issue order,
  /// so a checker can replay the command stream against the timing rules
  /// without the scheduler's own horizons. Off (null, the default), a
  /// command pays one null-pointer test. Not part of the snapshot.
  void set_command_log(std::vector<CommandRecord>* log) { log_ = log; }

  Cycle now() const { return now_; }
  const ChannelCounters& counters() const { return counters_; }
  std::size_t read_queue_size() const { return read_q_.size(); }
  std::size_t write_queue_size() const { return write_q_.size(); }

  /// Checkpoint/restore (DESIGN.md §11): bank state machines, both request
  /// queues, pending completions, every timing horizon (command/data bus,
  /// tFAW windows, refresh schedule, power-down tracking) and all counters.
  /// Block locations are recomputed from the address mapper on load.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  struct Bank {
    bool row_open = false;
    std::uint32_t open_row = 0;
    Cycle act_allowed = 0;   ///< earliest next ACT (tRC, tRP after PRE, tRFC)
    Cycle rdwr_allowed = 0;  ///< earliest RD/WR after ACT (tRCD)
    Cycle pre_allowed = 0;   ///< earliest PRE (tRAS, tRTP, write recovery)
  };

  struct Queued {
    DramRequest req;
    BlockLocation loc;
    std::uint64_t order = 0;  ///< age for FCFS tie-breaks
    bool needed_act = false;  ///< a PRE/ACT was issued on this request's
                              ///< behalf => its RD/WR is not a row hit
  };

  enum class CmdKind { kActivate, kPrecharge, kReadWrite };

  struct Candidate {
    Cycle when = 0;
    CmdKind kind = CmdKind::kActivate;
    std::size_t index = 0;  ///< position in the active queue
    bool row_hit = false;
  };

  // earliest_command, pick, issue, exit_powerdown, rank_act_ready and
  // rank_turnaround are advance()'s command kernel: defined inline in
  // channel.cpp, which says why.

  /// Earliest cycle the next command needed by `q` can issue.
  Candidate earliest_command(const Queued& q) const;

  Bank& bank_of(const BlockLocation& loc) {
    return banks_[static_cast<std::size_t>(loc.rank) *
                      static_cast<std::size_t>(config_.geometry.banks) +
                  static_cast<std::size_t>(loc.bank)];
  }
  const Bank& bank_of(const BlockLocation& loc) const {
    return const_cast<DramChannel*>(this)->bank_of(loc);
  }

  /// Picks the FR-FCFS winner from `queue`; returns false if empty.
  /// `min_when` receives the earliest issue time over ALL candidates (the
  /// winner's own time under anti-starvation) — the lower bound advance()
  /// caches as the channel's next event.
  bool pick(const std::vector<Queued>& queue, Candidate& out,
            Cycle& min_when) const;

  /// The original O(queue) FR-FCFS scan, kept verbatim as the oracle the
  /// production picker is cross-checked against under PLANARIA_DASSERT
  /// (debug / sanitizer builds): any divergence in (when, kind, index,
  /// row_hit) aborts.
  bool pick_matches_reference(const std::vector<Queued>& queue, bool found,
                              const Candidate& out) const;

  void issue(std::vector<Queued>& queue, const Candidate& cand);
  void perform_refresh(Cycle at);
  void perform_bank_refresh(Cycle at);
  Cycle rank_turnaround(Cycle t, int rank) const;

  /// Applies LPDDR4 power-down accounting: if the channel sat idle past tCKE
  /// since the last command, it entered CKE-low power-down and the next
  /// command at `when` pays the tXP exit penalty. Returns the adjusted time.
  Cycle exit_powerdown(Cycle when);
  Cycle rank_act_ready(Cycle t, int rank) const;
  /// Appends to the command log; callers test log_ first.
  void log_command(Cycle at, Command command, int rank, int bank,
                   std::uint32_t row = 0);

  DramConfig config_;
  AddressMapper mapper_;
  std::vector<Bank> banks_;
  // Request queues are vectors, not deques: FR-FCFS scans every entry per
  // pick and a contiguous scan is several times cheaper than chasing deque
  // map nodes. Entries leave from arbitrary positions (erase preserves FCFS
  // order); queue depth is capped by the controller config so the shift is
  // a few cache lines at worst.
  std::vector<Queued> read_q_;
  std::vector<Queued> write_q_;
  // Membership shadow of write_q_ by block: every read submitted probes the
  // write queue for store-to-load forwarding and every write probes it for
  // coalescing, so the common miss case must not pay a linear scan. Blocks
  // in write_q_ are unique (coalescing guarantees it), so presence is enough;
  // the rare coalesce hit still scans to find the entry to update. Derived
  // state: rebuilt from write_q_ on restore, never serialized.
  common::BlockMap<std::uint8_t> write_blocks_;
  std::vector<DramCompletion> completions_;

  Cycle now_ = 0;
  Cycle next_cmd_ok_ = 0;    ///< command-bus serialization (tCMD)
  Cycle next_read_ok_ = 0;   ///< data-bus + turnaround constraint for reads
  Cycle next_write_ok_ = 0;  ///< data-bus + turnaround constraint for writes
  /// Per-rank ACT tracking (tFAW window, tRRD). The tFAW window only ever
  /// needs the last four ACT times, so they live in a fixed ring (a deque
  /// here put a pointer chase on every ACT candidate evaluation). Snapshot
  /// encoding iterates oldest to newest — byte-identical to the deque it
  /// replaced.
  struct RankState {
    static constexpr std::size_t kFawWindow = 4;
    Cycle acts[kFawWindow] = {0, 0, 0, 0};
    std::size_t act_head = 0;   ///< slot of the oldest entry when full
    std::size_t act_count = 0;  ///< 0..kFawWindow
    Cycle last_act = 0;
    bool have_last_act = false;

    void push_act(Cycle when) {
      if (act_count < kFawWindow) {
        acts[(act_head + act_count) % kFawWindow] = when;
        ++act_count;
      } else {
        acts[act_head] = when;  // overwrite oldest == push_back + pop_front
        act_head = (act_head + 1) % kFawWindow;
      }
    }
    Cycle oldest_act() const { return acts[act_head]; }
    /// i-th entry, oldest first (for the canonical snapshot order).
    Cycle act_at(std::size_t i) const {
      return acts[(act_head + i) % kFawWindow];
    }
    void clear_acts() {
      act_head = 0;
      act_count = 0;
    }
  };
  std::vector<RankState> ranks_;
  int last_burst_rank_ = -1;  ///< for inter-rank tRTRS bus turnaround
  Cycle last_burst_end_ = 0;

  Cycle refresh_due_;
  Cycle refresh_interval_ = 0;  ///< deadline spacing, fixed by the config
  int refresh_bank_rr_ = 0;  ///< REFpb round-robin cursor
  Cycle last_cmd_time_ = 0;  ///< for power-down entry detection (tXP exits)
  bool ever_issued_ = false; ///< pre-init state is not billed as power-down
  int postponed_refreshes_ = 0;
  bool draining_writes_ = false;
  std::uint64_t order_counter_ = 0;
  ChannelCounters counters_;

  // Next-event cache (NOT serialized — pure derived state). When valid, no
  // command can issue strictly before next_event_when_ as long as the
  // queues, bank and bus state are untouched; candidate issue times do not
  // depend on now_ below that bound, so jumping the clock is exact. Set
  // when advance() stops with nothing issuable by its horizon; invalidated
  // by submit(), inject_stall() and load_state(). Refresh deadlines are
  // checked separately against refresh_due_. Lets advance() jump to `until`
  // in O(1) instead of re-running the refresh/hysteresis/pick preamble only
  // to conclude "nothing yet".
  bool next_event_valid_ = false;
  Cycle next_event_when_ = 0;

  /// Requests older than this many cycles win over row hits (anti-starvation).
  static constexpr Cycle kStarvationAge = 2000;

  /// A prefetch only issues when no demand could go within this many cycles
  /// of it (prefetches fill idle slots; they never displace demand service).
  static constexpr Cycle kPrefetchSlack = 0;

  // lint: volatile(log_): a test-only observer, not channel state; the records go to the caller's vector and a restore leaves the log as the test armed it
  std::vector<CommandRecord>* log_ = nullptr;  ///< test-only command log
};

}  // namespace planaria::dram
