#include "service/warm_cache.hpp"

#include "service/snapshot.hpp"

#include <algorithm>
#include <vector>

namespace smartly::service {

bool ResultCache::lookup(const Hash128& key, Entry* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end())
    return false;
  *out = it->second;
  return true;
}

void ResultCache::insert(const Hash128& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= kResultCacheMax && entries_.find(key) == entries_.end())
    return; // full: degrade to a miss rather than evict nondeterministically
  entries_.emplace(key, std::move(entry));
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Hash128 job_result_key(const std::string& source) {
  // v1 of the service job flow (smartly_flow, enable_rewrite, threads=1).
  // Bump the tag string on any result-affecting flow change.
  const uint64_t salt = hash_mix(0x726573756c742e31ULL); // "result.1"
  Hash128 h{salt, hash_mix(salt)};
  uint64_t lane = 0;
  size_t n = 0;
  for (const unsigned char c : source) {
    lane = (lane << 8) | c;
    if (++n % 8 == 0) {
      h = hash128_combine(h, lane);
      lane = 0;
    }
  }
  h = hash128_combine(h, lane);
  h = hash128_combine(h, source.size());
  return h;
}

static void put_blob(std::string& out, const std::string& blob) {
  put_u32(out, static_cast<uint32_t>(blob.size()));
  out += blob;
}

/// Bounds-checked counterpart: a length that overruns the payload trips the
/// reader's sticky ok flag instead of reading out of range.
static std::string get_blob(ByteReader& r) {
  const uint32_t len = r.u32();
  if (!r.ok || len > r.bytes.size() - r.pos) {
    r.ok = false;
    return {};
  }
  std::string blob = r.bytes.substr(r.pos, len);
  r.pos += len;
  return blob;
}

std::string serialize_warm_cache(const ResultCache& results) {
  std::lock_guard<std::mutex> lock(results.mutex_);
  std::vector<std::pair<Hash128, const ResultCache::Entry*>> sorted;
  sorted.reserve(results.entries_.size());
  for (const auto& [key, entry] : results.entries_)
    sorted.emplace_back(key, &entry);
  // Sort for stable snapshot bytes: two daemons that learned the same
  // entries write identical files.
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.first.hi != b.first.hi ? a.first.hi < b.first.hi : a.first.lo < b.first.lo;
  });
  std::string out;
  put_u32(out, static_cast<uint32_t>(sorted.size()));
  for (const auto& [key, entry] : sorted) {
    put_u64(out, key.hi);
    put_u64(out, key.lo);
    put_blob(out, entry->verilog);
    put_blob(out, entry->manifest_tail);
  }
  return out;
}

bool load_warm_cache(const std::string& path, ResultCache* results, WarmCacheLoadStats* stats) {
  WarmCacheLoadStats local;
  std::string payload;
  bool aside = false;
  if (!load_snapshot_file(path, kWarmCacheVersion, &payload, &local.error, &aside)) {
    local.corrupt_quarantined = aside;
    if (stats)
      *stats = local;
    return false;
  }

  ByteReader r(payload);
  const uint32_t n_results = r.u32();
  for (uint32_t i = 0; i < n_results && r.ok; ++i) {
    Hash128 key;
    key.hi = r.u64();
    key.lo = r.u64();
    ResultCache::Entry entry;
    entry.verilog = get_blob(r);
    entry.manifest_tail = get_blob(r);
    if (!r.ok)
      break;
    // An empty netlist cannot be a published result; a present-but-empty
    // blob means the writer was broken — skip the record, keep the rest.
    if (entry.verilog.empty()) {
      ++local.rejected_records;
      continue;
    }
    results->insert(key, std::move(entry));
    ++local.result_entries;
  }

  if (!r.ok || !r.at_end()) {
    // The container checksum passed but the records don't parse: a format
    // bug slipped past the version gate. Keep the records applied so far,
    // reject the remainder and report it.
    local.error = "warm-cache payload is internally inconsistent — ignored remainder";
    ++local.rejected_records;
  }

  local.loaded = true;
  if (stats)
    *stats = local;
  return true;
}

bool save_warm_cache(const std::string& path, const ResultCache& results, std::string* error) {
  return store_snapshot_file(path, kWarmCacheVersion, serialize_warm_cache(results), error);
}

} // namespace smartly::service
