#include "trace/import.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/env.hpp"

namespace planaria::trace {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("trace import: line " + std::to_string(line_no) +
                           ": " + what);
}

/// Per-line defect: throw under kThrow, otherwise skip-and-count against the
/// shared error budget (same policy as the native readers in trace/io.cpp).
void defect(RecoveryPolicy policy, TraceReadReport& report,
            std::size_t line_no, const std::string& what) {
  if (policy == RecoveryPolicy::kThrow) fail(line_no, what);
  report.note("line " + std::to_string(line_no) + ": " + what);
  if (report.errors > kDefaultErrorBudget) {
    fail(line_no, "error budget exhausted (" + std::to_string(report.errors) +
                      " defects)");
  }
}

/// Stable sort by arrival, through a sorted index; an already sorted capture
/// (the usual case) costs one is_sorted pass.
void sort_by_arrival(TraceBatch& batch) {
  const Cycle* t = batch.arrivals();
  if (std::is_sorted(t, t + batch.size())) return;
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [t](std::size_t a, std::size_t b) { return t[a] < t[b]; });
  TraceBatch sorted;
  sorted.reserve(batch.size());
  for (const std::size_t i : order) sorted.push_back(batch.record(i));
  batch = std::move(sorted);
}

}  // namespace

TraceBatch read_dramsim2(std::istream& is, RecoveryPolicy policy,
                         TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  TraceBatch out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // DRAMSim2 traces allow blank lines and ';' comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == ';') continue;
    if (line.size() > kMaxLineBytes) {
      defect(policy, rep, line_no, "overlong line");
      continue;
    }

    std::istringstream ls(line);
    std::string addr_s, type_s, cycle_s;
    if (!(ls >> addr_s >> type_s >> cycle_s)) {
      defect(policy, rep, line_no, "expected '<address> <type> <cycle>'");
      continue;
    }
    const auto address = parse_address_field(addr_s, 16);  // 0x optional
    const auto cycle = common::parse_uint(cycle_s);
    if (!address || !cycle) {
      defect(policy, rep, line_no, "bad address or cycle in '" + line + "'");
      continue;
    }
    TraceRecord r;
    r.address = addr::block_align(*address);
    r.arrival = *cycle;
    r.device = DeviceId::kCpuBig;
    if (type_s == "P_MEM_RD" || type_s == "P_FETCH" || type_s == "BOFF") {
      r.type = AccessType::kRead;
    } else if (type_s == "P_MEM_WR") {
      r.type = AccessType::kWrite;
    } else {
      defect(policy, rep, line_no, "unknown transaction type '" + type_s + "'");
      continue;
    }
    out.push_back(r);
  }
  // DRAMSim2 traces are cycle-ordered by construction, but tolerate captures
  // that interleave channels by re-sorting stably.
  sort_by_arrival(out);
  rep.records = out.size();
  return out;
}

TraceBatch read_dramsim2_file(const std::string& path, RecoveryPolicy policy,
                              TraceReadReport* report) {
  // lint: suppress(io-raw-stream) read-only offline import of a foreign text format; durability is owned by the write side
  std::ifstream is(path);
  if (!is) throw std::runtime_error("trace import: cannot open " + path);
  return read_dramsim2(is, policy, report);
}

void write_dramsim2(std::ostream& os, const TraceBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TraceRecord r = batch.record(i);
    os << "0x" << std::hex << r.address << std::dec << ' '
       << (r.type == AccessType::kRead ? "P_MEM_RD" : "P_MEM_WR") << ' '
       << r.arrival << '\n';
  }
  if (!os) throw std::runtime_error("trace import: dramsim2 write failed");
}

TraceBatch read_champsim_csv(std::istream& is, RecoveryPolicy policy,
                             TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  TraceBatch out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    // Optional header: any line whose first field is not a number.
    if (line_no == 1 && line.find_first_of("0123456789") != 0 &&
        line.compare(0, 2, "0x") != 0) {
      continue;
    }
    if (line.size() > kMaxLineBytes) {
      defect(policy, rep, line_no, "overlong line");
      continue;
    }
    std::istringstream ls(line);
    std::string addr_s, write_s, cycle_s;
    if (!std::getline(ls, addr_s, ',') || !std::getline(ls, write_s, ',') ||
        !std::getline(ls, cycle_s)) {
      defect(policy, rep, line_no, "expected 'address,is_write,cycle'");
      continue;
    }
    const auto address = parse_address_field(addr_s);
    const auto is_write = common::parse_uint(write_s);
    const auto cycle = common::parse_uint(cycle_s);
    if (!address || !is_write || !cycle) {
      defect(policy, rep, line_no, "bad field in '" + line + "'");
      continue;
    }
    TraceRecord r;
    r.address = addr::block_align(*address);
    r.type = *is_write != 0 ? AccessType::kWrite : AccessType::kRead;
    r.arrival = *cycle;
    r.device = DeviceId::kCpuBig;
    out.push_back(r);
  }
  sort_by_arrival(out);
  rep.records = out.size();
  return out;
}

}  // namespace planaria::trace
