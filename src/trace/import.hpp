// Importers for public trace formats.
//
// The paper's phone captures are proprietary; the natural substitutes are the
// public traces of the simulator ecosystems this project fits into:
//
//   * DRAMSim2 `.trc` text traces — the simulator the paper modified. Each
//     line is `<hex address> <type> <cycle>`, where type is one of
//     P_MEM_RD / P_MEM_WR (memory-side, exactly our vantage point) or
//     P_FETCH / BOFF.
//   * ChampSim LLC access traces in the simple CSV form
//     `address,is_write,cycle` that champsim tooling can emit. (ChampSim's
//     binary instruction traces carry PCs and pre-LLC accesses; exporting
//     LLC misses to CSV is the standard way to retarget them.)
//
// Imported records carry DeviceId::kCpuBig — public traces are single-agent,
// which is itself part of why the paper captured its own.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/batch.hpp"
#include "trace/io.hpp"

namespace planaria::trace {

/// Parses a DRAMSim2 `.trc` stream. Under kThrow (default), unknown
/// transaction types and malformed lines raise std::runtime_error with the
/// line number; under kRecover they are skipped and counted into `report`,
/// up to kDefaultErrorBudget (see trace/io.hpp).
TraceBatch read_dramsim2(std::istream& is,
                         RecoveryPolicy policy = RecoveryPolicy::kThrow,
                         TraceReadReport* report = nullptr);
TraceBatch read_dramsim2_file(const std::string& path,
                              RecoveryPolicy policy = RecoveryPolicy::kThrow,
                              TraceReadReport* report = nullptr);

/// Writes the DRAMSim2 `.trc` format, allowing generated mobile workloads to
/// be replayed on a stock DRAMSim2 build for cross-validation.
void write_dramsim2(std::ostream& os, const TraceBatch& batch);

/// Parses `address,is_write,cycle` CSV (ChampSim LLC export convention).
/// A header line is optional and detected automatically. Same per-line
/// skip-and-count semantics under kRecover as read_dramsim2.
TraceBatch read_champsim_csv(std::istream& is,
                             RecoveryPolicy policy = RecoveryPolicy::kThrow,
                             TraceReadReport* report = nullptr);

}  // namespace planaria::trace
