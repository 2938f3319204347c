#include "service/warm_cache.hpp"

#include "rewrite/rewrite_lib.hpp"
#include "service/snapshot.hpp"

#include <algorithm>
#include <vector>

namespace smartly::service {

using opt::CtrlDecision;
using rewrite::GateOp;
using rewrite::GateOperand;
using rewrite::GateProgram;
using rewrite::RewriteLibrary;

namespace {

uint8_t encode_decision(CtrlDecision d) {
  switch (d) {
  case CtrlDecision::Zero: return 1;
  case CtrlDecision::One: return 2;
  case CtrlDecision::DeadPath: return 3;
  case CtrlDecision::Unknown: break;
  }
  // Proven not-forced. The oracle only inserts Unknown when it is a pure
  // function of the salted cone (see InferenceOracle::decide); storing it
  // lets warm runs skip the both-polarity SAT protocol, the most expensive
  // query outcome there is.
  return 4;
}

bool decode_decision(uint8_t v, CtrlDecision* out) {
  switch (v) {
  case 1: *out = CtrlDecision::Zero; return true;
  case 2: *out = CtrlDecision::One; return true;
  case 3: *out = CtrlDecision::DeadPath; return true;
  case 4: *out = CtrlDecision::Unknown; return true; // proven not-forced
  default: return false; // reserved (0) or garbage: reject
  }
}

void put_operand(std::string& out, const GateOperand& o) {
  put_u8(out, static_cast<uint8_t>(o.kind));
  put_u8(out, o.index);
}

GateOperand get_operand(ByteReader& r) {
  GateOperand o;
  o.kind = static_cast<GateOperand::Kind>(r.u8());
  o.index = r.u8();
  return o;
}

} // namespace

bool OracleMemo::lookup(const Hash128& key, CtrlDecision* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end())
    return false;
  return decode_decision(it->second, out);
}

void OracleMemo::insert(const Hash128& key, CtrlDecision decision) {
  // The oracle filters before inserting: it only records verdicts that are
  // deterministic functions of the salted cone (all of Zero/One/DeadPath,
  // and Unknown only when proven not-forced). Store whatever it sends.
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.emplace(key, encode_decision(decision));
}

size_t OracleMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

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

std::string serialize_warm_cache(const OracleMemo& memo, const ResultCache& results) {
  const RewriteLibrary& lib = RewriteLibrary::instance();
  std::string out;
  put_u64(out, lib.fingerprint());

  {
    std::lock_guard<std::mutex> lock(memo.mutex_);
    put_u32(out, static_cast<uint32_t>(memo.entries_.size()));
    // Sort for stable snapshot bytes: two daemons that learned the same
    // entries write identical files, which the recovery tests rely on.
    std::vector<std::pair<Hash128, uint8_t>> sorted(memo.entries_.begin(),
                                                    memo.entries_.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.first.hi != b.first.hi ? a.first.hi < b.first.hi : a.first.lo < b.first.lo;
    });
    for (const auto& [key, decision] : sorted) {
      put_u64(out, key.hi);
      put_u64(out, key.lo);
      put_u8(out, decision);
    }
  }

  const std::vector<GateProgram> programs = RewriteLibrary::instance().export_programs();
  put_u32(out, static_cast<uint32_t>(programs.size()));
  for (const GateProgram& p : programs) {
    put_u16(out, p.tt);
    put_u8(out, p.support);
    put_operand(out, p.out);
    put_u16(out, static_cast<uint16_t>(p.ops.size()));
    for (const GateOp& op : p.ops) {
      put_u8(out, static_cast<uint8_t>(op.type));
      put_operand(out, op.a);
      put_operand(out, op.b);
      put_operand(out, op.s);
      put_u16(out, op.tt);
    }
  }

  {
    std::lock_guard<std::mutex> lock(results.mutex_);
    put_u32(out, static_cast<uint32_t>(results.entries_.size()));
    std::vector<std::pair<Hash128, const ResultCache::Entry*>> sorted;
    sorted.reserve(results.entries_.size());
    for (const auto& [key, entry] : results.entries_)
      sorted.emplace_back(key, &entry);
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.first.hi != b.first.hi ? a.first.hi < b.first.hi : a.first.lo < b.first.lo;
    });
    for (const auto& [key, entry] : sorted) {
      put_u64(out, key.hi);
      put_u64(out, key.lo);
      put_blob(out, entry->verilog);
      put_blob(out, entry->manifest_tail);
    }
  }
  return out;
}

bool load_warm_cache(const std::string& path, OracleMemo* memo, ResultCache* results,
                     WarmCacheLoadStats* stats) {
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
  const uint64_t fingerprint = r.u64();
  const bool lib_matches = fingerprint == RewriteLibrary::instance().fingerprint();

  const uint32_t n_oracle = r.u32();
  for (uint32_t i = 0; i < n_oracle && r.ok; ++i) {
    Hash128 key;
    key.hi = r.u64();
    key.lo = r.u64();
    const uint8_t enc = r.u8();
    if (!r.ok)
      break;
    CtrlDecision decision;
    if (!decode_decision(enc, &decision)) {
      ++local.rejected_records;
      continue;
    }
    memo->insert(key, decision);
    ++local.oracle_entries;
  }

  const uint32_t n_programs = r.u32();
  std::vector<GateProgram> programs;
  programs.reserve(r.ok ? n_programs : 0);
  for (uint32_t i = 0; i < n_programs && r.ok; ++i) {
    GateProgram p;
    p.tt = r.u16();
    p.support = r.u8();
    p.out = get_operand(r);
    const uint16_t n_ops = r.u16();
    if (n_ops > 64) { // matches import_programs' plausibility bound
      r.ok = false;
      break;
    }
    p.ops.reserve(n_ops);
    for (uint16_t j = 0; j < n_ops && r.ok; ++j) {
      GateOp op;
      op.type = static_cast<rtlil::CellType>(r.u8());
      op.a = get_operand(r);
      op.b = get_operand(r);
      op.s = get_operand(r);
      op.tt = r.u16();
      p.ops.push_back(op);
    }
    if (r.ok)
      programs.push_back(std::move(p));
  }

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
    // bug or a snapshot from a mismatched build slipped past the version
    // gate. Reject everything not yet applied and report it.
    local.error = "warm-cache payload is internally inconsistent — ignored remainder";
    ++local.rejected_records;
  } else if (lib_matches) {
    size_t rejected = 0;
    local.rewrite_programs = RewriteLibrary::instance().import_programs(programs, &rejected);
    local.rejected_records += rejected;
  }
  // A fingerprint mismatch silently drops the programs (they are stale by
  // construction) but keeps the oracle entries: their keys are salted by
  // oracle options, not by the rewrite library generation.

  local.loaded = true;
  if (stats)
    *stats = local;
  return true;
}

bool save_warm_cache(const std::string& path, const OracleMemo& memo,
                     const ResultCache& results, std::string* error) {
  return store_snapshot_file(path, kWarmCacheVersion, serialize_warm_cache(memo, results),
                             error);
}

} // namespace smartly::service
