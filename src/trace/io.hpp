// Trace serialization: a compact binary format (for captured/generated trace
// files) and a human-readable CSV format (for interchange and debugging).
//
// Binary layout: 16-byte header {magic "PLTR", u16 version, u16 flags,
// u64 record count}, then packed 24-byte records {u64 address, u64 arrival,
// u8 type, u8 device, 6B pad}. Little-endian, as every supported target is.
//
// Every reader hardens the same boundary: trace files are external input
// (captures copied off devices, tool output, downloads), so nothing from the
// byte stream is trusted before it is bounds-checked — in particular the
// binary header's record count is validated against the bytes the stream
// actually holds *before* any allocation sized from it. Beyond that, each
// reader takes a RecoveryPolicy: kThrow (default) raises std::runtime_error
// with a precise location on the first defect, while kRecover salvages what
// is intact — the complete-record prefix of a truncated binary file, every
// well-formed line of a damaged text file — and tallies what it skipped in a
// TraceReadReport, up to an error budget that distinguishes a damaged file
// from a wrong-format one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/batch.hpp"

namespace planaria::trace {

inline constexpr std::uint32_t kTraceMagic = 0x52544C50;  // "PLTR"
inline constexpr std::uint16_t kTraceVersion = 1;

inline constexpr std::uint32_t kBatchMagic = 0x42544C50;  // "PLTB"
inline constexpr std::uint16_t kBatchVersion = 1;

/// How a reader responds to malformed input.
enum class RecoveryPolicy : std::uint8_t {
  kThrow = 0,  ///< std::runtime_error on the first defect (default)
  kRecover,    ///< skip/salvage, count in a TraceReadReport, keep reading
};

/// Damaged records a kRecover read tolerates before concluding the input is
/// not merely corrupted but the wrong format entirely, and throwing.
inline constexpr std::uint64_t kDefaultErrorBudget = 256;

/// Error messages retained verbatim in a report; later defects only count.
inline constexpr std::size_t kMaxReportedErrors = 8;

/// Longest text line any reader accepts. A line past this bound is malformed
/// input (or not a text trace at all), not data — rejecting it early keeps a
/// binary blob fed to a text reader from ballooning one std::string.
inline constexpr std::size_t kMaxLineBytes = 4096;

/// A text trace's address field: "0x" or "0X" then hex digits, or bare
/// digits of `bare_base`, under common::parse_uint's rules (no sign,
/// whitespace or trailing junk). nullopt for anything else.
std::optional<std::uint64_t> parse_address_field(std::string_view field,
                                                 int bare_base = 10);

/// What a kRecover read skipped; also usable with kThrow (stays all-zero on
/// the success path, since the first defect throws).
struct TraceReadReport {
  std::uint64_t records = 0;  ///< records delivered to the caller
  std::uint64_t errors = 0;   ///< malformed records/lines skipped
  bool truncated = false;     ///< stream ended before the declared payload
  std::vector<std::string> messages;  ///< first kMaxReportedErrors defects

  /// Counts one defect, retaining the message while under the cap.
  void note(std::string message);
};

/// Writes `batch` in binary format. Throws std::runtime_error on IO failure.
void write_binary(std::ostream& os, const TraceBatch& batch);
void write_binary_file(const std::string& path, const TraceBatch& batch);

/// Reads a binary trace. kThrow: std::runtime_error on malformed input (bad
/// magic, version mismatch, header count exceeding the stream's bytes,
/// truncated payload, bad enum bytes). kRecover: salvages the complete-record
/// prefix of a truncated stream and skips records with bad enum bytes; a bad
/// magic or version still throws — a file this reader cannot even identify
/// has no salvageable prefix.
TraceBatch read_binary(std::istream& is,
                       RecoveryPolicy policy = RecoveryPolicy::kThrow,
                       TraceReadReport* report = nullptr);
TraceBatch read_binary_file(const std::string& path,
                            RecoveryPolicy policy = RecoveryPolicy::kThrow,
                            TraceReadReport* report = nullptr);

/// CSV: one "address,arrival,type,device" row per record, with a header row.
/// type is R|W; device is the device_name() string. Windows line endings are
/// accepted. kRecover skips malformed rows (within the error budget) instead
/// of throwing.
void write_csv(std::ostream& os, const TraceBatch& batch);
TraceBatch read_csv(std::istream& is,
                    RecoveryPolicy policy = RecoveryPolicy::kThrow,
                    TraceReadReport* report = nullptr);

/// Columnar (SoA) trace container format, designed to be mapped rather than
/// parsed: a 32-byte header {magic "PLTB", u16 version, u16 flags, u64 record
/// count, u32 payload CRC32, 12B reserved}, then three contiguous columns —
/// u64 addresses[count], u64 arrivals[count], u8 meta[count] (TraceBatch
/// packing: bit 0 type, bits 1..7 device). Both 8-byte columns start at
/// 8-aligned offsets, so a page-aligned mapping can serve them zero-copy.
/// Discipline mirrors the snapshot envelope: every length is validated
/// against the bytes actually present before anything is trusted, the CRC
/// covers the whole payload, and every meta byte is range-checked at open —
/// after which the hot loop consumes the columns without per-record checks.
void write_batch(std::ostream& os, const TraceBatch& batch);
void write_batch_file(const std::string& path, const TraceBatch& batch);

/// Read-only view of a "PLTB" file. Uses mmap where available (the columns
/// alias the page cache; nothing is copied) with a read-into-memory fallback.
/// The constructor throws std::runtime_error on any malformed input: bad
/// magic/version, non-zero flags or reserved fields, a file length other than
/// exactly 32 + 17 * count bytes, CRC mismatch, or an out-of-range meta byte.
/// The open-time checks and to_batch() walk the columns kWindowRows rows at a
/// time and give each window's mapped pages back before the next one, so
/// about one window of the file stays resident (DESIGN.md §19); a later read
/// through the accessors faults pages in again from the file.
class MappedTraceBatch {
 public:
  static constexpr std::size_t kWindowRows = std::size_t{1} << 16;

  explicit MappedTraceBatch(const std::string& path);
  ~MappedTraceBatch();
  MappedTraceBatch(MappedTraceBatch&& other) noexcept;
  MappedTraceBatch& operator=(MappedTraceBatch&& other) noexcept;
  MappedTraceBatch(const MappedTraceBatch&) = delete;
  MappedTraceBatch& operator=(const MappedTraceBatch&) = delete;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const Address* addresses() const { return addresses_; }
  const Cycle* arrivals() const { return arrivals_; }
  const std::uint8_t* meta() const { return meta_; }

  TraceRecord record(std::size_t i) const {
    return TraceRecord{addresses_[i], arrivals_[i],
                       TraceBatch::meta_type(meta_[i]),
                       TraceBatch::meta_device(meta_[i])};
  }

  /// Owning copy, for callers that outlive the mapping. Its CRC is checked
  /// again against the header's, because released pages are read anew from
  /// the file: a file rewritten in place after open throws
  /// std::runtime_error here.
  TraceBatch to_batch() const;

 private:
  void reset() noexcept;

  void* map_ = nullptr;            ///< mmap base (null under the fallback)
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> fallback_;  ///< owning buffer when mmap is absent
  const Address* addresses_ = nullptr;
  const Cycle* arrivals_ = nullptr;
  const std::uint8_t* meta_ = nullptr;
  std::size_t count_ = 0;
  std::uint32_t payload_crc_ = 0;  ///< the header's, checked at open
};


}  // namespace planaria::trace
