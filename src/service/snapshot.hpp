// Checksummed snapshot container for the service's persistent state.
//
// Every file the daemon persists across restarts (warm-cache snapshots,
// anything else that must survive kill -9) is wrapped in one container
// format:
//
//   bytes  0..7   magic "SMLYSNAP"
//   bytes  8..11  format version (uint32 LE) — bumped whenever the payload
//                 *semantics* change, so an old daemon never misreads a new
//                 snapshot and vice versa
//   bytes 12..19  payload length (uint64 LE)
//   bytes 20..35  Hash128 checksum of the payload (two uint64 LE words)
//   bytes 36..    payload
//
// The reader trusts nothing: magic, version, declared length, and checksum
// must all agree with the bytes actually present, or the snapshot is
// rejected with a diagnostic. load_snapshot_file() additionally moves a
// damaged file aside (<path>.corrupt) instead of deleting it — the daemon
// cold-rebuilds and keeps running, and the evidence survives for a bug
// report. Corruption is never fatal and a damaged snapshot is never
// partially applied.
//
// Writes go through util::atomic_write_file (temp + fsync + rename), so a
// crash mid-write leaves the previous snapshot intact; the torn temp file is
// swept on the next startup.
#pragma once

#include "util/hashing.hpp"

#include <cstdint>
#include <string>

namespace smartly::service {

/// Content checksum used by the container (FNV-style over 8-byte lanes,
/// folded through hash128_combine). Not cryptographic — the threat model is
/// torn writes and bit rot, not an adversary.
Hash128 payload_checksum(const std::string& payload);

/// Wrap `payload` into the container format.
std::string seal_snapshot(uint32_t version, const std::string& payload);

/// Verify + unwrap container bytes. On success fills `*payload` and returns
/// true; on any damage (short header, bad magic, version mismatch, length
/// mismatch, checksum mismatch) fills `*error` with a specific diagnostic
/// and returns false without touching `*payload`.
bool open_snapshot(const std::string& bytes, uint32_t expected_version, std::string* payload,
                   std::string* error);

/// Atomically write a sealed snapshot to `path` (temp + fsync + rename).
bool store_snapshot_file(const std::string& path, uint32_t version, const std::string& payload,
                         std::string* error);

/// Read and unwrap a snapshot file. A missing file returns false with an
/// empty `*error` (cold start, not a failure). A damaged file is renamed to
/// `<path>.corrupt` (best effort; `*quarantined_aside` reports whether the
/// rename happened), `*error` describes the damage, and false is returned —
/// the caller cold-rebuilds.
bool load_snapshot_file(const std::string& path, uint32_t expected_version, std::string* payload,
                        std::string* error, bool* quarantined_aside = nullptr);

// --- little-endian payload writers/readers (the warm-cache codec) ---------

inline void put_u8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

inline void put_u16(std::string& out, uint16_t v) {
  put_u8(out, static_cast<uint8_t>(v & 0xff));
  put_u8(out, static_cast<uint8_t>(v >> 8));
}

inline void put_u32(std::string& out, uint32_t v) {
  put_u16(out, static_cast<uint16_t>(v & 0xffff));
  put_u16(out, static_cast<uint16_t>(v >> 16));
}

inline void put_u64(std::string& out, uint64_t v) {
  put_u32(out, static_cast<uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<uint32_t>(v >> 32));
}

/// Bounds-checked cursor over payload bytes. Any past-the-end read sets the
/// sticky `ok` flag false and returns zeros; codecs check ok once per record
/// instead of after every field.
struct ByteReader {
  const std::string& bytes;
  size_t pos = 0;
  bool ok = true;

  explicit ByteReader(const std::string& b) : bytes(b) {}

  uint8_t u8() {
    if (pos + 1 > bytes.size()) {
      ok = false;
      return 0;
    }
    return static_cast<uint8_t>(bytes[pos++]);
  }
  uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
  }
  uint32_t u32() {
    const uint32_t lo = u16();
    return lo | (static_cast<uint32_t>(u16()) << 16);
  }
  uint64_t u64() {
    const uint64_t lo = u32();
    return lo | (static_cast<uint64_t>(u32()) << 32);
  }
  bool at_end() const { return pos == bytes.size(); }
};

} // namespace smartly::service
