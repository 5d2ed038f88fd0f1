#include "dram/channel.hpp"

#include <algorithm>

#include "check/contract.hpp"
#include "common/assert.hpp"

namespace planaria::dram {

DramChannel::DramChannel(const DramConfig& config)
    : config_(config),
      mapper_(config.geometry),
      banks_(static_cast<std::size_t>(config.geometry.banks) *
             static_cast<std::size_t>(config.geometry.ranks)),
      ranks_(static_cast<std::size_t>(config.geometry.ranks)),
      // REFpb refreshes one bank per deadline at banks-times the REFab rate.
      refresh_due_(static_cast<Cycle>(
          config.controller.per_bank_refresh
              ? config.timing.tREFI / config.geometry.banks
              : config.timing.tREFI)) {
  config_.validate();
  refresh_interval_ = refresh_due_;  // first deadline == deadline spacing
}

bool DramChannel::submit(const DramRequest& request) {
  // Any accepted (or coalesced) request can change what the scheduler would
  // issue next; drop the cached next-event bound.
  next_event_valid_ = false;
  // `arrival` may be earlier than now_: the controller can have fast-forwarded
  // through refresh while the request was in flight toward it. earliest
  // command scheduling clamps to max(now_, arrival).
  Queued q;
  q.req = request;
  q.loc = mapper_.map(request.local_block);
  q.order = ++order_counter_;

  if (request.is_write) {
    // Coalesce a write to a block already waiting in the write queue: the
    // later data simply replaces the earlier burst. The membership shadow
    // answers the (overwhelmingly common) miss case without a scan; on a hit
    // the scan finds the unique matching entry to retag.
    if (write_blocks_.contains(request.local_block)) {
      for (auto& w : write_q_) {
        if (w.req.local_block == request.local_block) {
          w.req.tag = request.tag;
          return true;
        }
      }
    }
    if (write_q_.size() >=
        static_cast<std::size_t>(config_.controller.write_queue_depth)) {
      ++counters_.read_queue_overflows;  // bus would have stalled here
    }
    write_q_.push_back(q);
    write_blocks_.insert(request.local_block, 1);
    return true;
  }

  // Read hitting the write queue is forwarded from the buffered data. Only
  // membership matters here — the completion is built from the read request.
  if (write_blocks_.contains(request.local_block)) {
    DramCompletion c;
    c.tag = request.tag;
    c.arrival = request.arrival;
    c.finish = request.arrival + static_cast<Cycle>(config_.timing.tCL);
    c.is_prefetch = request.is_prefetch;
    c.forwarded = true;
    PLANARIA_ENSURE_MSG(kTimingMonotonicity, c.finish >= c.arrival,
                        "forwarded read completed before it arrived");
    completions_.push_back(c);
    ++counters_.forwarded_reads;
    if (request.is_prefetch) {
      ++counters_.prefetch_reads;
    } else {
      ++counters_.demand_reads;
    }
    return true;
  }

  if (read_q_.size() >=
      static_cast<std::size_t>(config_.controller.read_queue_depth)) {
    if (request.is_prefetch) {
      ++counters_.prefetch_drops;
      return false;  // saturated channel throttles speculation first
    }
    ++counters_.read_queue_overflows;
  }
  read_q_.push_back(q);
  return true;
}

// ---------------------------------------------------------------------------
// The command kernel. Everything advance() runs per command is defined
// inline here and compiles into advance() itself: the per-command call
// boundaries, not the FR-FCFS scan, held most of a command's fixed cost.
// Refresh and drain below stay out of line as cold paths.
// ---------------------------------------------------------------------------
inline Cycle DramChannel::rank_act_ready(Cycle t, int rank) const {
  const RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  Cycle ready = t;
  if (rs.have_last_act) {
    ready = std::max(ready, rs.last_act + static_cast<Cycle>(config_.timing.tRRD));
  }
  if (rs.act_count >= RankState::kFawWindow) {
    ready = std::max(ready,
                     rs.oldest_act() + static_cast<Cycle>(config_.timing.tFAW));
  }
  return ready;
}

inline Cycle DramChannel::rank_turnaround(Cycle t, int rank) const {
  // Switching the data bus between ranks costs tRTRS after the previous
  // burst; same-rank bursts are paced by tCCD alone. With 1 rank (Table 1)
  // this never fires.
  if (last_burst_rank_ < 0 || last_burst_rank_ == rank) return t;
  return std::max(t, last_burst_end_ + static_cast<Cycle>(config_.timing.tRTRS));
}

inline DramChannel::Candidate DramChannel::earliest_command(
    const Queued& q) const {
  const Bank& b = bank_of(q.loc);
  const Cycle base = std::max({now_, q.req.arrival, next_cmd_ok_});
  Candidate c;
  if (b.row_open && b.open_row == q.loc.row) {
    c.kind = CmdKind::kReadWrite;
    c.row_hit = true;
    c.when = rank_turnaround(
        std::max({base, b.rdwr_allowed,
                  q.req.is_write ? next_write_ok_ : next_read_ok_}),
        q.loc.rank);
  } else if (b.row_open) {
    c.kind = CmdKind::kPrecharge;
    c.when = std::max(base, b.pre_allowed);
  } else {
    c.kind = CmdKind::kActivate;
    c.when = std::max({base, b.act_allowed, rank_act_ready(base, q.loc.rank)});
  }
  return c;
}

inline bool DramChannel::pick(const std::vector<Queued>& queue,
                              Candidate& out, Cycle& min_when) const {
  if (queue.empty()) return false;

  // Anti-starvation: a request past the age cap preempts FR-FCFS ordering.
  // The winner's own time is the channel's next-event bound here: while the
  // starved request stays at the front (and it does — only its own issue
  // removes it), every later pick considers it alone, so no earlier command
  // can materialize without new state.
  const Queued& oldest = queue.front();
  if (now_ > oldest.req.arrival + kStarvationAge) {
    out = earliest_command(oldest);
    out.index = 0;
    min_when = out.when;
    PLANARIA_DASSERT_MSG(pick_matches_reference(queue, true, out),
                         "FR-FCFS picker diverged from the reference scan");
    return true;
  }

  // Singleton queue (the common steady state): the lone request wins both
  // priority classes, so the class bookkeeping below collapses to one
  // earliest_command evaluation.
  if (queue.size() == 1) {
    out = earliest_command(oldest);
    out.index = 0;
    min_when = out.when;
    PLANARIA_DASSERT_MSG(pick_matches_reference(queue, true, out),
                         "FR-FCFS picker diverged from the reference scan");
    return true;
  }

  // Two priority classes: demands, then prefetches. A prefetch command is
  // chosen only when no demand could issue within kPrefetchSlack cycles of
  // it — i.e. prefetches fill idle command slots instead of delaying demand
  // service (standard memory-side prefetch priority).
  bool have_demand = false, have_any = false;
  Candidate best_demand, best_any;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    Candidate c = earliest_command(queue[i]);
    c.index = i;
    const bool is_prefetch = queue[i].req.is_prefetch;
    // FR-FCFS within a class: earliest issue time, then open-row hits, then
    // age (queue position).
    const auto better = [](const Candidate& cand, const Candidate& incumbent) {
      if (cand.when != incumbent.when) return cand.when < incumbent.when;
      if (cand.row_hit != incumbent.row_hit) return cand.row_hit;
      return false;
    };
    if (!have_any || better(c, best_any)) {
      best_any = c;
      have_any = true;
    }
    if (!is_prefetch && (!have_demand || better(c, best_demand))) {
      best_demand = c;
      have_demand = true;
    }
  }
  if (!have_any) return false;
  out = (have_demand && best_demand.when <= best_any.when + kPrefetchSlack)
            ? best_demand
            : best_any;
  min_when = best_any.when;
  PLANARIA_DASSERT_MSG(pick_matches_reference(queue, true, out),
                       "FR-FCFS picker diverged from the reference scan");
  return true;
}

// Verbatim re-implementation of the pre-overhaul picker (deque-era FR-FCFS
// scan), used only as a PLANARIA_DASSERT oracle. Any change to pick() must
// keep this oracle in agreement or the divergence aborts in debug/sanitizer
// builds before it can corrupt a result.
bool DramChannel::pick_matches_reference(const std::vector<Queued>& queue,
                                         bool found,
                                         const Candidate& out) const {
  Candidate ref;
  bool ref_found = false;
  if (!queue.empty()) {
    const Queued& oldest = queue.front();
    if (now_ > oldest.req.arrival + kStarvationAge) {
      ref = earliest_command(oldest);
      ref.index = 0;
      ref_found = true;
    } else {
      bool have_demand = false, have_any = false;
      Candidate best_demand, best_any;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        Candidate c = earliest_command(queue[i]);
        c.index = i;
        const bool is_prefetch = queue[i].req.is_prefetch;
        const auto better = [](const Candidate& c1, const Candidate& c2) {
          if (c1.when != c2.when) return c1.when < c2.when;
          if (c1.row_hit != c2.row_hit) return c1.row_hit;
          return false;
        };
        if (!have_any || better(c, best_any)) {
          best_any = c;
          have_any = true;
        }
        if (!is_prefetch && (!have_demand || better(c, best_demand))) {
          best_demand = c;
          have_demand = true;
        }
      }
      if (have_any) {
        ref = (have_demand && best_demand.when <= best_any.when + kPrefetchSlack)
                  ? best_demand
                  : best_any;
        ref_found = true;
      }
    }
  }
  if (ref_found != found) return false;
  if (!found) return true;
  return ref.when == out.when && ref.kind == out.kind &&
         ref.index == out.index && ref.row_hit == out.row_hit;
}

inline Cycle DramChannel::exit_powerdown(Cycle when) {
  // Controller policy: enter CKE-low after powerdown_idle_threshold idle
  // cycles (a policy knob well above tCKE's minimum pulse width); exiting
  // costs tXP before the next command. The pre-first-command state is not
  // billed — the device has not been initialized into active standby yet.
  if (!ever_issued_) return when;
  const Cycle pd_entry =
      last_cmd_time_ +
      static_cast<Cycle>(config_.controller.powerdown_idle_threshold);
  if (when <= pd_entry) return when;
  counters_.powerdown_cycles += when - pd_entry;
  ++counters_.powerdown_entries;
  if (log_ != nullptr) {
    log_command(pd_entry, Command::kPowerDownEntry, -1, -1);
    log_command(when, Command::kPowerDownExit, -1, -1);
  }
  return when + static_cast<Cycle>(config_.timing.tXP);
}

inline void DramChannel::issue(std::vector<Queued>& queue,
                               const Candidate& cand) {
  Queued& q = queue[cand.index];
  Bank& b = bank_of(q.loc);
  const auto& t = config_.timing;
  const Cycle when = cand.when;
  const auto burst = static_cast<Cycle>(t.burst_cycles());
  if (log_ != nullptr) {
    const Command command =
        cand.kind == CmdKind::kActivate    ? Command::kActivate
        : cand.kind == CmdKind::kPrecharge ? Command::kPrecharge
        : q.req.is_write                   ? Command::kWrite
                                           : Command::kRead;
    log_command(when, command, q.loc.rank, q.loc.bank, q.loc.row);
  }

  switch (cand.kind) {
    case CmdKind::kActivate: {
      q.needed_act = true;
      b.row_open = true;
      b.open_row = q.loc.row;
      b.rdwr_allowed = when + static_cast<Cycle>(t.tRCD);
      b.pre_allowed = when + static_cast<Cycle>(t.tRAS);
      b.act_allowed = when + static_cast<Cycle>(t.tRC);
      RankState& rs = ranks_[static_cast<std::size_t>(q.loc.rank)];
      rs.last_act = when;
      rs.have_last_act = true;
      rs.push_act(when);
      ++counters_.activates;
      break;
    }
    case CmdKind::kPrecharge: {
      q.needed_act = true;
      b.row_open = false;
      b.act_allowed = std::max(b.act_allowed, when + static_cast<Cycle>(t.tRP));
      ++counters_.precharges;
      break;
    }
    case CmdKind::kReadWrite: {
      DramCompletion c;
      c.tag = q.req.tag;
      c.arrival = q.req.arrival;
      c.is_write = q.req.is_write;
      c.is_prefetch = q.req.is_prefetch;
      c.row_hit = !q.needed_act;
      if (q.req.is_write) {
        const Cycle data_end = when + static_cast<Cycle>(t.tCWL) + burst;
        c.finish = data_end;
        last_burst_rank_ = q.loc.rank;
        last_burst_end_ = data_end;
        next_write_ok_ = std::max(next_write_ok_, when + static_cast<Cycle>(t.tCCD));
        next_read_ok_ = std::max(next_read_ok_,
                                 data_end + static_cast<Cycle>(t.tWTR));
        b.pre_allowed = std::max(b.pre_allowed,
                                 data_end + static_cast<Cycle>(t.tWR));
        ++counters_.writes;
      } else {
        const Cycle data_end = when + static_cast<Cycle>(t.tCL) + burst;
        c.finish = data_end;
        last_burst_rank_ = q.loc.rank;
        last_burst_end_ = data_end;
        next_read_ok_ = std::max(next_read_ok_, when + static_cast<Cycle>(t.tCCD));
        // Write bursts must not collide with this read's data on the bus.
        const Cycle wr_ok = when + static_cast<Cycle>(t.tCL) + burst +
                            static_cast<Cycle>(t.tRTRS) -
                            static_cast<Cycle>(t.tCWL);
        next_write_ok_ = std::max(next_write_ok_, wr_ok);
        b.pre_allowed = std::max(b.pre_allowed, when + static_cast<Cycle>(t.tRTP));
        ++counters_.reads;
        if (q.req.is_prefetch) {
          ++counters_.prefetch_reads;
        } else {
          ++counters_.demand_reads;
        }
      }
      if (c.row_hit) {
        ++counters_.row_hits;
      } else {
        ++counters_.row_misses;
      }
      counters_.busy_data_cycles += burst;
      completions_.push_back(c);
      // A block is queued for writing at most once (submit coalesces, and
      // load_state rejects duplicates), so the burst retires its membership.
      if (&queue == &write_q_) write_blocks_.erase(q.req.local_block);
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(cand.index));
      break;
    }
  }
  next_cmd_ok_ = when + static_cast<Cycle>(t.tCMD);
  last_cmd_time_ = when;
  ever_issued_ = true;
  now_ = when;
}

void DramChannel::advance(Cycle until) {
  if (until < now_) until = now_;
  const auto& ctrl = config_.controller;

  // Event jump: when the cached bound says nothing can issue by `until` and
  // no refresh deadline falls due either, the whole preamble below is a
  // no-op (the hysteresis already reached its fixed point when the bound was
  // cached, and candidate issue times are independent of now_ below the
  // bound), so the clock moves in O(1). The oracle assertion re-runs the
  // full picker to prove the skip changed nothing.
  if (next_event_valid_ && refresh_due_ > until && next_event_when_ > until) {
    PLANARIA_DASSERT_MSG(
        [&] {
          Candidate c;
          Cycle mw = 0;
          const std::vector<Queued>& active =
              draining_writes_ ? write_q_ : read_q_;
          return !pick(active, c, mw) || mw > until;
        }(),
        "next-event cache skipped an issuable command");
    now_ = until;
    counters_.elapsed = now_;
    return;
  }
  next_event_valid_ = false;

  while (true) {
    // Refresh debt: every deadline that has passed becomes one owed refresh.
    while (refresh_due_ <= now_) {
      ++postponed_refreshes_;
      refresh_due_ += refresh_interval_;
    }
    if (postponed_refreshes_ > 0 &&
        (postponed_refreshes_ >= ctrl.max_postponed_refreshes ||
         (read_q_.empty() && write_q_.empty()))) {
      perform_refresh(now_);
      --postponed_refreshes_;
      continue;
    }

    // Write-drain hysteresis.
    if (draining_writes_) {
      if (write_q_.empty() ||
          (write_q_.size() <= static_cast<std::size_t>(ctrl.write_drain_low) &&
           !read_q_.empty())) {
        draining_writes_ = false;
      }
    } else {
      if (write_q_.size() >= static_cast<std::size_t>(ctrl.write_drain_high) ||
          (read_q_.empty() && !write_q_.empty())) {
        draining_writes_ = true;
      }
    }

    std::vector<Queued>& active = draining_writes_ ? write_q_ : read_q_;
    Candidate cand;
    Cycle min_when = 0;
    if (!pick(active, cand, min_when)) {
      // Idle: fast-forward refresh deadlines up to `until`, then stop. With
      // both queues empty every owed refresh was already performed above, so
      // the next event is the next deadline — cacheable as "infinitely far"
      // on the command side.
      while (read_q_.empty() && write_q_.empty() && refresh_due_ <= until) {
        perform_refresh(refresh_due_);
        refresh_due_ += refresh_interval_;
      }
      if (read_q_.empty() && write_q_.empty()) {
        next_event_valid_ = true;
        next_event_when_ = ~Cycle{0};
      }
      break;
    }
    if (cand.when > until) {
      // Nothing issuable by the horizon: min_when lower-bounds the next
      // command for every later advance() until new state arrives.
      next_event_valid_ = true;
      next_event_when_ = min_when;
      break;
    }
    cand.when = exit_powerdown(cand.when);
    issue(active, cand);
  }

  const Cycle before = now_;
  now_ = std::max(now_, until);
  counters_.elapsed = now_;
  // The channel clock never runs backward and always reaches the requested
  // horizon (the request flow in sim/simulator relies on both).
  PLANARIA_ENSURE_MSG(kTimingMonotonicity, now_ >= before && now_ >= until,
                      "channel clock regressed in advance()");
}

// ---------------------------------------------------------------------------
// Cold paths: refresh (once per tREFI, or per tREFI/banks with REFpb), drain
// and the test-only command log.
// ---------------------------------------------------------------------------
void DramChannel::perform_bank_refresh(Cycle at) {
  const auto& t = config_.timing;
  // Refresh one bank (round-robin across ranks x banks); the rest of the
  // channel keeps serving. The bank must be precharged first.
  Bank& b = banks_[static_cast<std::size_t>(refresh_bank_rr_)];
  const int rank = refresh_bank_rr_ / config_.geometry.banks;
  const int bank = refresh_bank_rr_ % config_.geometry.banks;
  refresh_bank_rr_ = (refresh_bank_rr_ + 1) % static_cast<int>(banks_.size());
  Cycle start = exit_powerdown(std::max(at, next_cmd_ok_));
  if (b.row_open) {
    start = std::max(start, b.pre_allowed);
    if (log_ != nullptr) log_command(start, Command::kPrecharge, rank, bank);
    ++counters_.precharges;
    start += static_cast<Cycle>(t.tRP);
    b.row_open = false;
  }
  if (log_ != nullptr) log_command(start, Command::kRefreshBank, rank, bank);
  const Cycle done = start + static_cast<Cycle>(t.tRFCpb);
  b.act_allowed = std::max(b.act_allowed, done);
  next_cmd_ok_ = std::max(next_cmd_ok_, start + static_cast<Cycle>(t.tCMD));
  last_cmd_time_ = std::max(last_cmd_time_, done);
  ever_issued_ = true;
  now_ = std::max(now_, start);
  ++counters_.refreshes_pb;
}

void DramChannel::perform_refresh(Cycle at) {
  if (config_.controller.per_bank_refresh) {
    perform_bank_refresh(at);
    return;
  }
  const auto& t = config_.timing;
  // All banks must be precharged before REFab; a powered-down channel exits
  // first (self-refresh is not modelled separately — idle refresh cadence is
  // identical and the power model prices power-down time uniformly).
  Cycle start = exit_powerdown(std::max(at, next_cmd_ok_));
  bool any_open = false;
  for (const auto& b : banks_) {
    if (b.row_open) {
      any_open = true;
      start = std::max(start, b.pre_allowed);
    }
  }
  if (any_open) {
    if (log_ != nullptr) log_command(start, Command::kPrechargeAll, -1, -1);
    ++counters_.precharges;  // modelled as one PREab
    start += static_cast<Cycle>(t.tRP);
  }
  if (log_ != nullptr) log_command(start, Command::kRefresh, -1, -1);
  const Cycle done = start + static_cast<Cycle>(t.tRFC);
  for (auto& b : banks_) {
    b.row_open = false;
    b.act_allowed = std::max(b.act_allowed, done);
  }
  next_cmd_ok_ = std::max(next_cmd_ok_, start + static_cast<Cycle>(t.tCMD));
  // The device is busy until tRFC completes; that interval is not idle time
  // for power-down accounting.
  last_cmd_time_ = std::max(last_cmd_time_, done);
  ever_issued_ = true;
  now_ = std::max(now_, start);
  ++counters_.refreshes;
}

void DramChannel::drain() {
  // Small steps bound the time overshoot past the last completion; queues
  // being non-empty keeps the idle refresh fast-forward out of the loop.
  while (!read_q_.empty() || !write_q_.empty()) {
    advance(now_ + 64);
  }
  counters_.elapsed = now_;
  PLANARIA_ENSURE_MSG(kTimingMonotonicity,
                      read_q_.empty() && write_q_.empty(),
                      "drain() returned with queued requests");
}

void DramChannel::log_command(Cycle at, Command command, int rank, int bank,
                              std::uint32_t row) {
  log_->push_back(CommandRecord{at, command, rank, bank, row});
}

void DramChannel::take_completions(std::vector<DramCompletion>& out) {
  // Most steps drain zero or one completion; a singleton is trivially sorted
  // and skipping the std::sort call entirely keeps that common case flat.
  if (completions_.size() > 1) {
    std::sort(completions_.begin(), completions_.end(),
              [](const DramCompletion& a, const DramCompletion& b) {
                return a.finish < b.finish;
              });
  }
  // Command scheduling clamps issue to max(now, arrival), so no burst can
  // complete before its request reached the controller. Each completion is
  // checked exactly once across the channel's lifetime.
  for (const auto& c : completions_) {
    PLANARIA_ENSURE_MSG(kTimingMonotonicity, c.finish >= c.arrival,
                        "data burst completed before its request arrived");
  }
  // clear() keeps out's capacity, so after the swap completions_ inherits it
  // and the next step's push_backs land in already-reserved storage.
  out.clear();
  out.swap(completions_);
}

std::vector<DramCompletion> DramChannel::take_completions() {
  // lint: no-contract(pure forwarder; the sink overload checks timing monotonicity)
  // lint: suppress(hot-alloc) convenience wrapper for tests; the simulator's step loop uses the sink overload above with a per-channel scratch buffer
  std::vector<DramCompletion> out;
  take_completions(out);
  return out;
}

void DramChannel::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("DRM0"));
  w.u64(static_cast<std::uint64_t>(banks_.size()));
  for (const Bank& b : banks_) {
    w.b(b.row_open);
    w.u32(b.open_row);
    w.u64(b.act_allowed);
    w.u64(b.rdwr_allowed);
    w.u64(b.pre_allowed);
  }
  const auto save_queue = [&w](const std::vector<Queued>& q) {
    w.u64(static_cast<std::uint64_t>(q.size()));
    for (const Queued& e : q) {
      w.u64(e.req.local_block);
      w.u64(e.req.arrival);
      w.b(e.req.is_write);
      w.b(e.req.is_prefetch);
      w.u64(e.req.tag);
      w.u64(e.order);
      w.b(e.needed_act);
    }
  };
  save_queue(read_q_);
  save_queue(write_q_);
  w.u64(static_cast<std::uint64_t>(completions_.size()));
  for (const DramCompletion& c : completions_) {
    w.u64(c.tag);
    w.u64(c.arrival);
    w.u64(c.finish);
    w.b(c.is_write);
    w.b(c.is_prefetch);
    w.b(c.row_hit);
    w.b(c.forwarded);
  }
  w.u64(now_);
  w.u64(next_cmd_ok_);
  w.u64(next_read_ok_);
  w.u64(next_write_ok_);
  w.u64(static_cast<std::uint64_t>(ranks_.size()));
  for (const RankState& rs : ranks_) {
    w.u64(static_cast<std::uint64_t>(rs.act_count));
    for (std::size_t i = 0; i < rs.act_count; ++i) w.u64(rs.act_at(i));
    w.u64(rs.last_act);
    w.b(rs.have_last_act);
  }
  w.i64(last_burst_rank_);
  w.u64(last_burst_end_);
  w.u64(refresh_due_);
  w.i64(refresh_bank_rr_);
  w.u64(last_cmd_time_);
  w.b(ever_issued_);
  w.i64(postponed_refreshes_);
  w.b(draining_writes_);
  w.u64(order_counter_);
  w.u64(counters_.activates);
  w.u64(counters_.precharges);
  w.u64(counters_.reads);
  w.u64(counters_.writes);
  w.u64(counters_.refreshes);
  w.u64(counters_.refreshes_pb);
  w.u64(counters_.row_hits);
  w.u64(counters_.row_misses);
  w.u64(counters_.demand_reads);
  w.u64(counters_.prefetch_reads);
  w.u64(counters_.prefetch_drops);
  w.u64(counters_.read_queue_overflows);
  w.u64(counters_.forwarded_reads);
  w.u64(counters_.powerdown_entries);
  w.u64(counters_.powerdown_cycles);
  w.u64(counters_.elapsed);
  w.u64(counters_.busy_data_cycles);
}

void DramChannel::load_state(snapshot::Reader& r) {
  next_event_valid_ = false;  // derived state; never trust it across a restore
  r.expect_tag(snapshot::tag4("DRM0"));
  if (r.u64() != banks_.size()) {
    throw snapshot::SnapshotError("DRAM bank count mismatch");
  }
  for (Bank& b : banks_) {
    b.row_open = r.b();
    b.open_row = r.u32();
    b.act_allowed = r.u64();
    b.rdwr_allowed = r.u64();
    b.pre_allowed = r.u64();
  }
  const auto load_queue = [this, &r](std::vector<Queued>& q) {
    const std::uint64_t n = r.u64();
    q.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      Queued e;
      e.req.local_block = r.u64();
      e.req.arrival = r.u64();
      e.req.is_write = r.b();
      e.req.is_prefetch = r.b();
      e.req.tag = r.u64();
      e.order = r.u64();
      e.needed_act = r.b();
      e.loc = mapper_.map(e.req.local_block);
      q.push_back(std::move(e));
    }
  };
  load_queue(read_q_);
  load_queue(write_q_);
  // Rebuild the derived write-queue membership shadow. submit() coalesces
  // writes to a queued block, so no run can save one queued twice.
  write_blocks_.clear();
  for (const Queued& e : write_q_) {
    if (write_blocks_.contains(e.req.local_block)) {
      throw snapshot::SnapshotError("DRAM write queue holds a block twice");
    }
    write_blocks_.insert(e.req.local_block, 1);
  }
  const std::uint64_t completion_count = r.u64();
  completions_.clear();
  for (std::uint64_t i = 0; i < completion_count; ++i) {
    DramCompletion c;
    c.tag = r.u64();
    c.arrival = r.u64();
    c.finish = r.u64();
    c.is_write = r.b();
    c.is_prefetch = r.b();
    c.row_hit = r.b();
    c.forwarded = r.b();
    completions_.push_back(c);
  }
  now_ = r.u64();
  next_cmd_ok_ = r.u64();
  next_read_ok_ = r.u64();
  next_write_ok_ = r.u64();
  if (r.u64() != ranks_.size()) {
    throw snapshot::SnapshotError("DRAM rank count mismatch");
  }
  for (RankState& rs : ranks_) {
    const std::uint64_t acts = r.u64();
    if (acts > RankState::kFawWindow) {
      throw snapshot::SnapshotError("rank ACT window larger than tFAW depth");
    }
    rs.clear_acts();
    for (std::uint64_t i = 0; i < acts; ++i) rs.push_act(r.u64());
    rs.last_act = r.u64();
    rs.have_last_act = r.b();
  }
  last_burst_rank_ = static_cast<int>(r.i64());
  last_burst_end_ = r.u64();
  refresh_due_ = r.u64();
  const std::int64_t refresh_cursor = r.i64();
  if (refresh_cursor < 0 ||
      static_cast<std::uint64_t>(refresh_cursor) >= banks_.size()) {
    throw snapshot::SnapshotError("DRAM refresh cursor outside ranks x banks");
  }
  refresh_bank_rr_ = static_cast<int>(refresh_cursor);
  last_cmd_time_ = r.u64();
  ever_issued_ = r.b();
  // advance() performs owed refreshes until fewer than the cap remain.
  const std::int64_t postponed = r.i64();
  if (postponed < 0 || postponed > config_.controller.max_postponed_refreshes) {
    throw snapshot::SnapshotError("DRAM postponed refresh count out of range");
  }
  postponed_refreshes_ = static_cast<int>(postponed);
  draining_writes_ = r.b();
  order_counter_ = r.u64();
  counters_.activates = r.u64();
  counters_.precharges = r.u64();
  counters_.reads = r.u64();
  counters_.writes = r.u64();
  counters_.refreshes = r.u64();
  counters_.refreshes_pb = r.u64();
  counters_.row_hits = r.u64();
  counters_.row_misses = r.u64();
  counters_.demand_reads = r.u64();
  counters_.prefetch_reads = r.u64();
  counters_.prefetch_drops = r.u64();
  counters_.read_queue_overflows = r.u64();
  counters_.forwarded_reads = r.u64();
  counters_.powerdown_entries = r.u64();
  counters_.powerdown_cycles = r.u64();
  counters_.elapsed = r.u64();
  counters_.busy_data_cycles = r.u64();
}

}  // namespace planaria::dram
