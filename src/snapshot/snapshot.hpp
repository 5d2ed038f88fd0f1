// Versioned, CRC32-protected binary snapshot format (checkpoint/restore).
//
// A snapshot is a flat little-endian byte stream assembled by a Writer and
// decoded by a Reader. Every field is one fixed-width integer stored at its
// exact byte width (never a memcpy of a struct), so the format is
// independent of struct padding and ABI. The codec moves each field with one
// word-sized memcpy, which equals the little-endian byte order only on a
// little-endian host — a static_assert below pins that, so a snapshot taken
// on one supported platform restores on any other. Doubles travel as their
// IEEE-754 bit patterns, which is what makes restored results *bit*-identical
// rather than merely close.
//
// On disk the payload is wrapped in an envelope:
//
//   offset  size  field
//   0       8     magic "PLNSNAP1"
//   8       4     format version (kFormatVersion)
//   12      8     payload length in bytes
//   20      4     CRC32 (IEEE 802.3, reflected) of the payload
//   24      n     payload
//
// read_file() validates all four header fields before handing out a single
// payload byte; any mismatch (truncation, bit rot, wrong version, alien file)
// raises SnapshotError, never undefined behaviour. write_file() is atomic
// AND durable (src/io VFS): the envelope is written to "<path>.tmp", fsynced,
// renamed into place, and the parent directory is fsynced — so a crash or
// power cut mid-checkpoint can lose the new snapshot but never corrupt the
// old one and never leave a zero-length directory entry.
//
// Structure errors inside the payload are caught two ways: the Reader throws
// on any read past the end, and components bracket their sections with
// fourcc tags (expect_tag) so a desynchronized decode fails fast at a section
// boundary instead of misinterpreting another component's bytes.
//
// Versioning rule (DESIGN.md §11): any change to what a component serializes
// must bump kFormatVersion. Old snapshots are then rejected cleanly (a
// checkpointed run falls back to cold start); there is no in-place migration.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.hpp"

namespace planaria::snapshot {

static_assert(std::endian::native == std::endian::little,
              "the snapshot codec stores fields with host-order memcpy");

/// Raised on any malformed snapshot: truncated buffer, CRC mismatch, bad
/// magic/version, tag desynchronization, or impossible decoded values.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// Bump on any serialization layout change (see versioning rule above).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Section marker built from four printable characters, e.g. tag4("SLP0").
constexpr std::uint32_t tag4(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over `size` bytes: the tree's
/// one checksum routine (common/crc32.hpp), shared with the PLTB container.
using common::crc32;

/// Append-only little-endian encoder. Never fails; the buffer grows as
/// needed.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern; round-trips every value including NaN payloads.
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void tag(std::uint32_t t) { u32(t); }

  /// Opens a length-prefixed section: writes `t` plus a u64 placeholder that
  /// the matching end_section() backpatches with the enclosed byte count.
  /// Length framing lets a reader bound one component's bytes — skip a
  /// section it cannot decode, or verify a decode consumed exactly its
  /// section — which is what keeps one damaged session record in the serve
  /// envelope from desynchronizing every record after it. Sections nest;
  /// close them in LIFO order.
  std::size_t begin_section(std::uint32_t t) {
    tag(t);
    u64(0);
    return buf_.size();
  }

  /// Closes the section opened by the begin_section() that returned `token`,
  /// patching its length prefix in place.
  void end_section(std::size_t token);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  /// One resize plus one word store per field, instead of one push_back
  /// per byte. Growth (geometric) stays out of line: that keeps the inline
  /// path short, and keeps GCC 12's -Wstringop-overflow false positive on an
  /// inlined vector reallocation from firing.
  template <class T>
  void put(T v) {
    const std::size_t at = buf_.size();
    if (buf_.capacity() - at < sizeof(T)) grow();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }
  void grow();
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a byte span it does not own.
/// Every accessor throws SnapshotError instead of reading past the end.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  bool b();
  double f64() { return std::bit_cast<double>(get<std::uint64_t>()); }
  std::string str();

  /// Consumes a tag and requires it to equal `expected` — the payload-level
  /// framing check that catches desynchronized or reordered sections.
  void expect_tag(std::uint32_t expected);

  /// Consumes the tag + length prefix written by Writer::begin_section and
  /// returns the section's byte length, after checking the length fits in
  /// the remaining buffer (an over-long prefix is corruption, not a request
  /// to read past the end). Pair with position() to verify the decode
  /// consumed exactly the section, or with skip() to step over it.
  std::uint64_t enter_section(std::uint32_t expected);

  /// Skips `bytes` without decoding them (e.g. a section whose tag version
  /// this reader does not understand).
  void skip(std::uint64_t bytes);

  /// Current decode offset into the payload; section consumers compare
  /// before/after against an enter_section() length.
  std::size_t position() const { return pos_; }

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }
  /// Rejects the snapshot with a decode error. Generic container templates
  /// (common/set_table.hpp) call this instead of naming SnapshotError so
  /// they stay independent of the snapshot module.
  [[noreturn]] void fail(const std::string& what) const {
    throw SnapshotError(what);
  }
  /// Trailing unread bytes mean the decode went out of sync somewhere.
  void require_end() const;

 private:
  /// Inline fast path: one bounds check, one word load.
  template <class T>
  T get() {
    if (size_ - pos_ < sizeof(T)) truncated(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  [[noreturn]] void truncated(std::size_t wanted) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Serialization interface for stateful pipeline components. save_state must
/// write a byte-stable encoding: serialize -> deserialize -> serialize yields
/// the identical buffer (tests/test_snapshot.cpp holds every implementor to
/// this), which requires emitting unordered containers in a canonical order.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void save_state(Writer& w) const = 0;
  /// Restores from `r`, throwing SnapshotError on malformed input. A throw
  /// may leave the object partially updated; callers discard it and rebuild
  /// (the checkpoint recovery path constructs a fresh Simulator per attempt).
  virtual void load_state(Reader& r) = 0;
};

/// Wraps `payload` in the envelope and writes it atomically and durably
/// through the src/io VFS: the bytes land in "<path>.tmp", are fsynced,
/// renamed over `path`, and the parent directory entry is fsynced — so
/// `path` always holds either the previous complete snapshot or the new
/// complete snapshot, even across a power cut. Throws SnapshotError on any
/// filesystem failure (real or shim-injected).
void write_file(const std::string& path, const std::vector<std::uint8_t>& payload);

/// Reads and validates an envelope; returns the payload. Throws SnapshotError
/// on open failure, short file, bad magic, version mismatch, length mismatch
/// or CRC mismatch.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace planaria::snapshot
