#include "trace/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PLANARIA_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "check/contract.hpp"
#include "common/crc32.hpp"
#include "common/env.hpp"
#include "common/huge_pages.hpp"
#include "io/vfs.hpp"

namespace planaria::trace {

namespace {

struct BinaryHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint16_t flags;
  std::uint64_t count;
};
static_assert(sizeof(BinaryHeader) == 16);

struct BinaryRecord {
  std::uint64_t address;
  std::uint64_t arrival;
  std::uint8_t type;
  std::uint8_t device;
  std::uint8_t pad[6];
};
static_assert(sizeof(BinaryRecord) == 24);

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace IO: " + what);
}

/// One defect: throw under kThrow, otherwise tally it into `report` and check
/// the budget — a stream that keeps producing garbage past the budget is the
/// wrong format, and pressing on would only manufacture a bogus trace.
void defect(RecoveryPolicy policy, TraceReadReport& report,
            const std::string& what) {
  if (policy == RecoveryPolicy::kThrow) fail(what);
  report.note(what);
  if (report.errors > kDefaultErrorBudget) {
    fail("error budget exhausted (" + std::to_string(report.errors) +
         " defects; last: " + what + ")");
  }
}

/// Bytes left in `is` past the current position, or npos-style -1 for
/// non-seekable streams.
std::int64_t remaining_bytes(std::istream& is) {
  const std::istream::pos_type cur = is.tellg();
  if (cur == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(cur);
  if (end == std::istream::pos_type(-1) || end < cur) return -1;
  return static_cast<std::int64_t>(end - cur);
}

}  // namespace

std::optional<std::uint64_t> parse_address_field(std::string_view field,
                                                 int bare_base) {
  if (field.size() > 2 && field[0] == '0' &&
      (field[1] == 'x' || field[1] == 'X')) {
    return common::parse_uint(field.substr(2), 16);
  }
  return common::parse_uint(field, bare_base);
}

void TraceReadReport::note(std::string message) {
  ++errors;
  if (messages.size() < kMaxReportedErrors) {
    messages.push_back(std::move(message));
  }
}

void write_binary(std::ostream& os, const TraceBatch& batch) {
  BinaryHeader h{kTraceMagic, kTraceVersion, 0, batch.size()};
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TraceRecord r = batch.record(i);
    BinaryRecord b{};
    b.address = r.address;
    b.arrival = r.arrival;
    b.type = static_cast<std::uint8_t>(r.type);
    b.device = static_cast<std::uint8_t>(r.device);
    os.write(reinterpret_cast<const char*>(&b), sizeof(b));
  }
  if (!os) fail("write failed");
}

void write_binary_file(const std::string& path, const TraceBatch& batch) {
  // Serialize through the stream encoder, land the bytes through the io VFS
  // so the container gets the durable tmp/fsync/rename discipline and the
  // storage-fault drills cover this write site too.
  std::ostringstream os(std::ios::binary);
  write_binary(os, batch);
  const std::string image = os.str();
  try {
    io::write_file_durable(path, {io::ByteSpan{image.data(), image.size()}});
  } catch (const io::IoError& e) {
    fail(e.what());
  }
}

TraceBatch read_binary(std::istream& is, RecoveryPolicy policy,
                       TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;

  BinaryHeader h{};
  is.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!is || is.gcount() != sizeof(h)) fail("truncated header");
  // A stream whose identity bytes are wrong is not a damaged trace, it is not
  // a trace: there is no salvageable prefix, so these throw in every policy.
  if (h.magic != kTraceMagic) fail("bad magic (not a planaria trace)");
  if (h.version != kTraceVersion) {
    fail("unsupported trace version " + std::to_string(h.version));
  }

  // The header's record count is untrusted input: bound it by the bytes the
  // stream actually holds BEFORE sizing any allocation from it. A 16-byte
  // file claiming 2^61 records previously drove a multi-GB reserve; now it is
  // a precise error (kThrow) or a salvage of what is really there (kRecover).
  std::uint64_t expect = h.count;
  const std::int64_t avail = remaining_bytes(is);
  if (avail >= 0) {
    const auto whole_records =
        static_cast<std::uint64_t>(avail) / sizeof(BinaryRecord);
    if (h.count > whole_records) {
      if (policy == RecoveryPolicy::kThrow) {
        fail("header claims " + std::to_string(h.count) +
             " records but the stream holds only " +
             std::to_string(whole_records) + " (" + std::to_string(avail) +
             " bytes)");
      }
      rep.note("truncated: header claims " + std::to_string(h.count) +
               " records, stream holds " + std::to_string(whole_records));
      rep.truncated = true;
      expect = whole_records;
    }
  }

  TraceBatch out;
  // For a non-seekable stream the count could not be validated; cap the
  // upfront reservation and let the vector grow against real data instead.
  constexpr std::uint64_t kBlindReserveCap = 1u << 20;
  out.reserve(avail >= 0 ? expect : std::min(expect, kBlindReserveCap));
  for (std::uint64_t i = 0; i < expect; ++i) {
    BinaryRecord b{};
    is.read(reinterpret_cast<char*>(&b), sizeof(b));
    if (!is || is.gcount() != sizeof(b)) {
      // Reachable when the byte count was unknowable (non-seekable stream) or
      // the stream shrank mid-read; the complete-record prefix stands.
      if (policy == RecoveryPolicy::kThrow) fail("truncated payload");
      rep.note("truncated payload at record " + std::to_string(i));
      rep.truncated = true;
      break;
    }
    if (b.type > 1) {
      defect(policy, rep,
             "corrupt record " + std::to_string(i) + ": bad access type");
      continue;
    }
    if (b.device >= static_cast<std::uint8_t>(DeviceId::kCount)) {
      defect(policy, rep,
             "corrupt record " + std::to_string(i) + ": bad device id");
      continue;
    }
    out.push_back(TraceRecord{addr::block_align(b.address), b.arrival,
                              static_cast<AccessType>(b.type),
                              static_cast<DeviceId>(b.device)});
  }
  rep.records = out.size();
  return out;
}

TraceBatch read_binary_file(const std::string& path, RecoveryPolicy policy,
                            TraceReadReport* report) {
  // lint: suppress(io-raw-stream) read-only trace ingest; every batch is CRC-guarded below, so rot is detected without the VFS read shim
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open for read: " + path);
  return read_binary(is, policy, report);
}

namespace {

struct BatchHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint16_t flags;
  std::uint64_t count;
  std::uint32_t payload_crc;
  std::uint32_t reserved0;
  std::uint64_t reserved1;
};
static_assert(sizeof(BatchHeader) == 32,
              "columns after the header must stay 8-aligned");

/// The PLTB header for `batch`. The payload CRC runs incrementally over the
/// three columns in file order, so no staging copy of the payload exists.
BatchHeader batch_header(const TraceBatch& batch) {
  const std::size_t n = batch.size();
  BatchHeader h{};
  h.magic = kBatchMagic;
  h.version = kBatchVersion;
  h.count = n;
  h.payload_crc = common::Crc32()
                      .update(batch.addresses(), n * sizeof(Address))
                      .update(batch.arrivals(), n * sizeof(Cycle))
                      .update(batch.meta(), n)
                      .value();
  return h;
}

/// The container image as four spans — header, addresses, arrivals, meta —
/// aliasing `h` and the batch's columns. Both writers emit exactly these.
std::vector<io::ByteSpan> batch_image(const BatchHeader& h,
                                      const TraceBatch& batch) {
  const std::size_t n = batch.size();
  return {io::ByteSpan{&h, sizeof(h)},
          io::ByteSpan{batch.addresses(), n * sizeof(Address)},
          io::ByteSpan{batch.arrivals(), n * sizeof(Cycle)},
          io::ByteSpan{batch.meta(), n}};
}

/// Gives back a mapped column's pages behind a scan that moves forward a
/// window at a time: once a window is consumed, every whole page from the
/// previous window's start to this window's end goes, so a page that
/// straddles two windows goes once both are done. Inert over the heap copy
/// of the no-mmap fallback, whose pages must not be dropped.
class ReleaseBehind {
 public:
  ReleaseBehind(const void* column, bool mapped)
      : behind_(static_cast<const std::uint8_t*>(column)), mapped_(mapped) {}

  void done(const void* window, std::size_t bytes) {
    const auto* start = static_cast<const std::uint8_t*>(window);
    if (mapped_) {
      common::release_pages(behind_,
                            static_cast<std::size_t>(start + bytes - behind_));
    }
    behind_ = start;
  }

 private:
  const std::uint8_t* behind_;
  bool mapped_;
};

}  // namespace

void write_batch(std::ostream& os, const TraceBatch& batch) {
  const BatchHeader h = batch_header(batch);
  for (const io::ByteSpan& span : batch_image(h, batch)) {
    if (span.size == 0) continue;  // an empty column may have a null base
    os.write(static_cast<const char*>(span.data),
             static_cast<std::streamsize>(span.size));
  }
  if (!os) fail("batch write failed");
}

void write_batch_file(const std::string& path, const TraceBatch& batch) {
  // The spans alias the batch's own columns: the VFS streams them straight
  // into the tmp file, keeping its fsync+rename durability and the storage
  // fault drills without a single intermediate copy of the payload.
  const BatchHeader h = batch_header(batch);
  try {
    io::write_file_durable(path, batch_image(h, batch));
  } catch (const io::IoError& e) {
    fail(e.what());
  }
}

MappedTraceBatch::MappedTraceBatch(const std::string& path) {
  const std::uint8_t* base = nullptr;
  std::size_t file_len = 0;
#if PLANARIA_TRACE_HAVE_MMAP
  // lint: suppress(io-raw-call) the zero-copy mmap fast path needs a raw fd; a copying io::read_file would defeat the container's point
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open for read: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail("cannot stat: " + path);
  }
  file_len = static_cast<std::size_t>(st.st_size);
  if (file_len > 0) {
    void* m = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED) fail("cannot mmap: " + path);
    map_ = m;
    map_len_ = file_len;
    base = static_cast<const std::uint8_t*>(m);
  } else {
    ::close(fd);
  }
#else
  // lint: suppress(io-raw-stream) read-only mmap fallback; batch CRCs guard the payload, same as the mapped path
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open for read: " + path);
  fallback_.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
  base = fallback_.data();
  file_len = fallback_.size();
#endif
  try {
    if (file_len < sizeof(BatchHeader)) fail("truncated batch header");
    BatchHeader h{};
    std::memcpy(&h, base, sizeof(h));
    if (h.magic != kBatchMagic) fail("bad magic (not a planaria batch)");
    if (h.version != kBatchVersion) {
      fail("unsupported batch version " + std::to_string(h.version));
    }
    // v1 defines no flags and writes zero reserved words; anything else is a
    // different (or damaged) format, not one to read as v1.
    if (h.flags != 0 || h.reserved0 != 0 || h.reserved1 != 0) {
      fail("non-zero batch flags or reserved header fields");
    }
    // The declared count is untrusted: bound the payload it implies by the
    // bytes the file actually holds before dereferencing anything, and
    // require the file to end exactly where the payload does (no trailing
    // bytes, no second container glued on).
    const std::uint64_t per_record = sizeof(Address) + sizeof(Cycle) + 1;
    const std::uint64_t avail = file_len - sizeof(BatchHeader);
    if (h.count > avail / per_record) {
      fail("header claims " + std::to_string(h.count) +
           " records but the file holds only " + std::to_string(avail) +
           " payload bytes");
    }
    if (avail != h.count * per_record) {
      fail(std::to_string(avail - h.count * per_record) +
           " trailing bytes after the batch payload");
    }
    const std::size_t n = static_cast<std::size_t>(h.count);
    const std::uint8_t* payload = base + sizeof(BatchHeader);
    const std::uint8_t* columns[] = {
        payload, payload + n * sizeof(Address),
        payload + n * (sizeof(Address) + sizeof(Cycle))};
    const std::size_t widths[] = {sizeof(Address), sizeof(Cycle), 1};
    // One pass in file order, a window of one column at a time: CRC it,
    // range-check the meta bytes (once, so the hot loop can unpack them
    // unchecked), then give its pages back.
    common::Crc32 crc;
    std::size_t bad_meta = n;  // first out-of-range meta byte; n if none
    for (int c = 0; c < 3; ++c) {
      ReleaseBehind release(columns[c], map_ != nullptr);
      for (std::size_t row = 0; row < n; row += kWindowRows) {
        const std::size_t rows = std::min(kWindowRows, n - row);
        const std::uint8_t* window = columns[c] + row * widths[c];
        crc.update(window, rows * widths[c]);
        constexpr auto kDevices = static_cast<std::uint8_t>(DeviceId::kCount);
        for (std::size_t i = 0; c == 2 && bad_meta == n && i < rows; ++i) {
          if ((window[i] >> 1) >= kDevices) bad_meta = row + i;
        }
        release.done(window, rows * widths[c]);
      }
    }
    if (crc.value() != h.payload_crc) fail("batch payload CRC mismatch");
    if (bad_meta != n) {
      fail("corrupt record " + std::to_string(bad_meta) + ": bad device id");
    }
    addresses_ = reinterpret_cast<const Address*>(columns[0]);
    arrivals_ = reinterpret_cast<const Cycle*>(columns[1]);
    meta_ = columns[2];
    count_ = n;
    payload_crc_ = h.payload_crc;
  } catch (...) {
    reset();
    throw;
  }
}

void MappedTraceBatch::reset() noexcept {
#if PLANARIA_TRACE_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
  fallback_.clear();
  addresses_ = nullptr;
  arrivals_ = nullptr;
  meta_ = nullptr;
  count_ = 0;
  payload_crc_ = 0;
}

MappedTraceBatch::~MappedTraceBatch() { reset(); }

MappedTraceBatch::MappedTraceBatch(MappedTraceBatch&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      fallback_(std::move(other.fallback_)),
      addresses_(std::exchange(other.addresses_, nullptr)),
      arrivals_(std::exchange(other.arrivals_, nullptr)),
      meta_(std::exchange(other.meta_, nullptr)),
      count_(std::exchange(other.count_, 0)),
      payload_crc_(std::exchange(other.payload_crc_, 0)) {
  other.fallback_.clear();
}

MappedTraceBatch& MappedTraceBatch::operator=(
    MappedTraceBatch&& other) noexcept {
  if (this != &other) {
    reset();
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    fallback_ = std::move(other.fallback_);
    addresses_ = std::exchange(other.addresses_, nullptr);
    arrivals_ = std::exchange(other.arrivals_, nullptr);
    meta_ = std::exchange(other.meta_, nullptr);
    count_ = std::exchange(other.count_, 0);
    payload_crc_ = std::exchange(other.payload_crc_, 0);
    other.fallback_.clear();
  }
  return *this;
}

TraceBatch MappedTraceBatch::to_batch() const {
  // Every meta byte was range-checked at open, so the columns copy verbatim,
  // one window of each column at a time.
  TraceBatch out = TraceBatch::with_capacity(count_);
  const bool mapped = map_ != nullptr;
  ReleaseBehind release[] = {ReleaseBehind(addresses_, mapped),
                             ReleaseBehind(arrivals_, mapped),
                             ReleaseBehind(meta_, mapped)};
  for (std::size_t row = 0; row < count_; row += kWindowRows) {
    const std::size_t rows = std::min(kWindowRows, count_ - row);
    out.append_columns(addresses_ + row, arrivals_ + row, meta_ + row, rows);
    release[0].done(addresses_ + row, rows * sizeof(Address));
    release[1].done(arrivals_ + row, rows * sizeof(Cycle));
    release[2].done(meta_ + row, rows);
  }
  // Released pages were read again from the file, which may have changed
  // since open; the copy is returned only if it is still the checked payload.
  const std::uint32_t crc =
      common::Crc32()
          .update(out.addresses(), count_ * sizeof(Address))
          .update(out.arrivals(), count_ * sizeof(Cycle))
          .update(out.meta(), count_)
          .value();
  if (crc != payload_crc_) fail("batch payload changed on disk after open");
  return out;
}

void write_csv(std::ostream& os, const TraceBatch& batch) {
  os << "address,arrival,type,device\n";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TraceRecord r = batch.record(i);
    os << "0x" << std::hex << r.address << std::dec << ',' << r.arrival << ','
       << (r.type == AccessType::kRead ? 'R' : 'W') << ','
       << device_name(r.device) << '\n';
  }
  if (!os) fail("csv write failed");
}

TraceBatch read_csv(std::istream& is, RecoveryPolicy policy,
                    TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  TraceBatch out;
  std::string line;
  if (!std::getline(is, line)) {
    if (policy == RecoveryPolicy::kThrow) fail("empty csv");
    rep.note("empty csv");
    return out;
  }
  // Header row is required but its exact spelling is not enforced.
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    // Tolerate Windows line endings: getline keeps the '\r' of a CRLF pair,
    // which used to poison the device-name match of every row.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string where = " at line " + std::to_string(line_no);
    if (line.size() > kMaxLineBytes) {
      defect(policy, rep, "csv overlong line" + where);
      continue;
    }
    std::istringstream ls(line);
    std::string addr_s, arrival_s, type_s, device_s;
    if (!std::getline(ls, addr_s, ',') || !std::getline(ls, arrival_s, ',') ||
        !std::getline(ls, type_s, ',') || !std::getline(ls, device_s)) {
      defect(policy, rep, "csv parse error" + where);
      continue;
    }
    TraceRecord r;
    const auto address = parse_address_field(addr_s);
    const auto arrival = common::parse_uint(arrival_s);
    if (!address || !arrival) {
      defect(policy, rep, "csv bad number" + where);
      continue;
    }
    r.address = addr::block_align(*address);
    r.arrival = *arrival;
    if (type_s == "R") {
      r.type = AccessType::kRead;
    } else if (type_s == "W") {
      r.type = AccessType::kWrite;
    } else {
      defect(policy, rep, "csv bad access type" + where);
      continue;
    }
    r.device = DeviceId::kCpuBig;
    bool matched = false;
    for (int d = 0; d < static_cast<int>(DeviceId::kCount); ++d) {
      if (device_s == device_name(static_cast<DeviceId>(d))) {
        r.device = static_cast<DeviceId>(d);
        matched = true;
        break;
      }
    }
    if (!matched) {
      defect(policy, rep, "csv bad device" + where);
      continue;
    }
    out.push_back(r);
  }
  rep.records = out.size();
  return out;
}

}  // namespace planaria::trace
