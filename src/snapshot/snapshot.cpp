#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "io/vfs.hpp"

namespace planaria::snapshot {

namespace {

constexpr char kMagic[8] = {'P', 'L', 'N', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;

}  // namespace

void Reader::truncated(std::size_t wanted) const {
  throw SnapshotError("truncated payload (wanted " + std::to_string(wanted) +
                      " bytes, " + std::to_string(size_ - pos_) + " left)");
}

bool Reader::b() {
  const std::uint8_t v = u8();
  if (v > 1) throw SnapshotError("bool field holds " + std::to_string(v));
  return v == 1;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (remaining() < n) throw SnapshotError("truncated string");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Reader::expect_tag(std::uint32_t expected) {
  const std::uint32_t got = u32();
  if (got != expected) {
    throw SnapshotError("section tag mismatch (got 0x" +
                        std::to_string(got) + ", expected 0x" +
                        std::to_string(expected) + ")");
  }
}

void Reader::require_end() const {
  if (!at_end()) {
    throw SnapshotError(std::to_string(remaining()) +
                        " unread bytes after decode");
  }
}

void Writer::grow() {
  buf_.reserve(std::max<std::size_t>(256, 2 * buf_.capacity()));
}

void Writer::end_section(std::size_t token) {
  if (token < 8 || token > buf_.size()) {
    throw SnapshotError("end_section token does not match a begin_section");
  }
  const std::uint64_t len = buf_.size() - token;
  std::memcpy(buf_.data() + token - 8, &len, sizeof(len));
}

std::uint64_t Reader::enter_section(std::uint32_t expected) {
  expect_tag(expected);
  const std::uint64_t len = u64();
  if (len > remaining()) {
    throw SnapshotError("section length " + std::to_string(len) +
                        " exceeds the " + std::to_string(remaining()) +
                        " bytes remaining");
  }
  return len;
}

void Reader::skip(std::uint64_t bytes) {
  if (bytes > remaining()) {
    throw SnapshotError("skip past end of payload");
  }
  pos_ += static_cast<std::size_t>(bytes);
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& payload) {
  Writer header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kFormatVersion);
  header.u64(payload.size());
  header.u32(crc32(payload.data(), payload.size()));

  // The VFS supplies the durability discipline (tmp -> fsync -> rename ->
  // directory fsync) and the storage-fault hooks; this layer only frames the
  // envelope. IoError is translated so snapshot callers keep a single
  // exception type.
  try {
    const auto& h = header.buffer();
    io::write_file_durable(path, {io::ByteSpan{h.data(), h.size()},
                                  io::ByteSpan{payload.data(), payload.size()}});
  } catch (const io::IoError& e) {
    throw SnapshotError(e.what());
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> image;
  try {
    image = io::read_file(path);
  } catch (const io::IoError& e) {
    throw SnapshotError(e.what());
  }

  if (image.size() < kHeaderBytes) {
    throw SnapshotError(path + ": shorter than the envelope header");
  }
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError(path + ": bad magic");
  }
  Reader hr(image.data() + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  const std::uint32_t version = hr.u32();
  if (version != kFormatVersion) {
    throw SnapshotError(path + ": format version " + std::to_string(version) +
                        " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t length = hr.u64();
  const std::uint32_t expected_crc = hr.u32();

  // The length field is validated against the bytes actually present (the
  // whole-file read already bounded the allocation by the real file size, so
  // a corrupt length is a precise error, not a huge alloc).
  if (image.size() - kHeaderBytes != length) {
    throw SnapshotError(path + ": payload length field disagrees with file size");
  }
  if (crc32(image.data() + kHeaderBytes, length) != expected_crc) {
    throw SnapshotError(path + ": CRC mismatch");
  }
  // Drop the header in place: the image becomes the payload without a second
  // allocation.
  image.erase(image.begin(), image.begin() + kHeaderBytes);
  return image;
}

}  // namespace planaria::snapshot
