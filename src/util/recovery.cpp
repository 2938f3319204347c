#include "util/recovery.hpp"

#include "util/atomic_file.hpp"
#include "util/budget.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace smartly::util {

namespace fs = std::filesystem;

uint64_t bit_unit_id(const std::string& wire_name, int offset) {
  uint64_t h = stable_name_hash(wire_name);
  h ^= 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(offset) + (h << 6) + (h >> 2);
  return h == 0 ? 1 : h;
}

bool QuarantineSet::add(const std::string& site, uint64_t unit) {
  const std::pair<std::string, uint64_t> key{site, unit};
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key);
  if (it != entries_.end() && *it == key)
    return false;
  entries_.insert(it, key);
  return true;
}

bool QuarantineSet::contains(const char* site, uint64_t unit) const noexcept {
  for (const auto& [s, u] : entries_)
    if (u == unit && s == site)
      return true;
  return false;
}

std::string QuarantineSet::serialize() const {
  std::string out;
  char buf[32];
  for (const auto& [site, unit] : entries_) {
    if (!out.empty())
      out += ',';
    std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(unit));
    out += site;
    out += ':';
    out += buf;
  }
  return out;
}

QuarantineSet QuarantineSet::parse(const std::string& text) {
  QuarantineSet set;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos)
      end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= item.size())
      continue;
    const std::string site = item.substr(0, colon);
    const std::string hex = item.substr(colon + 1);
    char* endp = nullptr;
    const unsigned long long unit = std::strtoull(hex.c_str(), &endp, 16);
    if (endp == nullptr || *endp != '\0')
      continue;
    set.add(site, static_cast<uint64_t>(unit));
  }
  return set;
}

RoundEntry enter_round(ResourceGuard* guard, const QuarantineSet* quarantine, const char* site,
                       uint64_t round, uint64_t cells) {
  if (guard != nullptr && guard->checkpoint(cells)) {
    guard->note_halted_engine();
    return RoundEntry::Halt;
  }
  if (quarantine != nullptr && quarantine->contains(site, round))
    return RoundEntry::Skip; // a previously faulting round: skip it, keep iterating
  if (fault_point(site, round) != FaultAction::None) {
    halt_on_fault(guard, FaultInjected(site, round));
    return RoundEntry::Halt;
  }
  return RoundEntry::Run;
}

void halt_on_fault(ResourceGuard* guard, const FaultInjected& e) {
  if (guard == nullptr)
    return;
  guard->note_fault(e.site().c_str(), e.unit());
  guard->halt(BudgetKind::Fault);
  guard->note_halted_engine();
}

RecoveryStats& RecoveryStats::operator+=(const RecoveryStats& o) {
  stages += o.stages;
  rollbacks += o.rollbacks;
  retries += o.retries;
  quarantined_units += o.quarantined_units;
  stages_skipped += o.stages_skipped;
  bundles_written += o.bundles_written;
  paranoid_checks += o.paranoid_checks;
  paranoid_miscompares += o.paranoid_miscompares;
  events.insert(events.end(), o.events.begin(), o.events.end());
  return *this;
}

namespace {

std::string manifest_text(const ReproBundle& b) {
  std::ostringstream out;
  out << "stage=" << b.stage << "\n";
  // Lets the reader detect a truncated/tampered design.v: both files are
  // written atomically, but a bundle can still be damaged after the fact
  // (partial copy, disk corruption), and --replay must refuse it cleanly.
  out << "design.bytes=" << b.design_verilog.size() << "\n";
  out << "reason=" << b.reason << "\n";
  out << "site=" << b.site << "\n";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(b.unit));
  out << "unit=" << buf << "\n";
  out << "attempt=" << b.attempt << "\n";
  out << "quarantine=" << b.quarantine << "\n";
  out << "options=" << b.options << "\n";
  out << "plan.active=" << (b.plan_active ? 1 : 0) << "\n";
  if (b.plan_active) {
    out << "plan.seed=" << b.plan.seed << "\n";
    out << "plan.unknown_permille=" << b.plan.unknown_permille << "\n";
    out << "plan.throw_permille=" << b.plan.throw_permille << "\n";
    out << "plan.exhaust_after=" << b.plan.exhaust_after << "\n";
    out << "plan.throw_after=" << b.plan.throw_after << "\n";
    out << "plan.site_filter=" << b.plan.site_filter << "\n";
    out << "plan.unit_keyed=" << (b.plan.unit_keyed ? 1 : 0) << "\n";
  }
  // End marker, always last: a manifest without it was truncated mid-write
  // (or mid-copy) and the reader rejects it with a diagnostic instead of
  // silently replaying half a bundle.
  out << "manifest.end=1\n";
  return out.str();
}

bool apply_manifest_line(const std::string& key, const std::string& value, ReproBundle* b) {
  auto to_i64 = [](const std::string& s) { return std::strtoll(s.c_str(), nullptr, 10); };
  auto to_u64 = [](const std::string& s) { return std::strtoull(s.c_str(), nullptr, 10); };
  if (key == "stage")
    b->stage = value;
  else if (key == "reason")
    b->reason = value;
  else if (key == "site")
    b->site = value;
  else if (key == "unit")
    b->unit = std::strtoull(value.c_str(), nullptr, 16);
  else if (key == "attempt")
    b->attempt = static_cast<int>(to_i64(value));
  else if (key == "quarantine")
    b->quarantine = value;
  else if (key == "options")
    b->options = value;
  else if (key == "plan.active")
    b->plan_active = to_i64(value) != 0;
  else if (key == "plan.seed")
    b->plan.seed = to_u64(value);
  else if (key == "plan.unknown_permille")
    b->plan.unknown_permille = static_cast<uint32_t>(to_u64(value));
  else if (key == "plan.throw_permille")
    b->plan.throw_permille = static_cast<uint32_t>(to_u64(value));
  else if (key == "plan.exhaust_after")
    b->plan.exhaust_after = to_i64(value);
  else if (key == "plan.throw_after")
    b->plan.throw_after = to_i64(value);
  else if (key == "plan.site_filter")
    b->plan.site_filter = value;
  else if (key == "plan.unit_keyed")
    b->plan.unit_keyed = to_i64(value) != 0;
  else
    return false; // unknown keys are tolerated (forward compatibility)
  return true;
}

} // namespace

std::string write_repro_bundle(const std::string& dir, const ReproBundle& bundle, int index) {
  std::error_code ec;
  char name[64];
  std::snprintf(name, sizeof(name), "bundle-%04d-%s", index,
                bundle.stage.empty() ? "stage" : bundle.stage.c_str());
  const fs::path bdir = fs::path(dir) / name;
  fs::create_directories(bdir, ec);
  if (ec)
    return "";
  // Atomic temp+fsync+rename writes, design first and manifest last: the
  // manifest is the commit record, so a crash at any point leaves either no
  // manifest (bundle ignored) or a complete pair — never a half bundle that
  // --replay chokes on.
  if (!atomic_write_file((bdir / "design.v").string(), bundle.design_verilog))
    return "";
  if (!atomic_write_file((bdir / "manifest.txt").string(), manifest_text(bundle)))
    return "";
  return bdir.string();
}

bool read_repro_bundle(const std::string& bundle_dir, ReproBundle* out, std::string* error) {
  const fs::path bdir(bundle_dir);
  std::ifstream design(bdir / "design.v", std::ios::binary);
  if (!design) {
    if (error)
      *error = "cannot open " + (bdir / "design.v").string();
    return false;
  }
  std::ostringstream dss;
  dss << design.rdbuf();
  out->design_verilog = dss.str();

  std::ifstream manifest(bdir / "manifest.txt");
  if (!manifest) {
    if (error)
      *error = "cannot open " + (bdir / "manifest.txt").string();
    return false;
  }
  bool saw_stage = false;
  bool saw_end = false;
  bool have_design_bytes = false;
  unsigned long long design_bytes = 0;
  std::string line;
  while (std::getline(manifest, line)) {
    if (!line.empty() && line.back() == '\r')
      line.pop_back();
    if (line.empty() || line[0] == '#')
      continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (error)
        *error = "malformed manifest line (no '='): " + line;
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "design.bytes") {
      design_bytes = std::strtoull(value.c_str(), nullptr, 10);
      have_design_bytes = true;
    } else if (key == "manifest.end") {
      saw_end = true;
    } else {
      apply_manifest_line(key, value, out);
    }
    saw_stage = saw_stage || key == "stage";
  }
  if (!saw_stage) {
    if (error)
      *error = "manifest.txt has no stage= line";
    return false;
  }
  if (!saw_end) {
    if (error)
      *error = "truncated manifest.txt (missing manifest.end marker) — the "
               "bundle is incomplete; re-run the producing command or restore "
               "the bundle from the CI artifact";
    return false;
  }
  if (have_design_bytes && design_bytes != out->design_verilog.size()) {
    if (error)
      *error = "design.v is " + std::to_string(out->design_verilog.size()) +
               " bytes but the manifest recorded " + std::to_string(design_bytes) +
               " — the bundle's design file is truncated or corrupt";
    return false;
  }
  return true;
}

} // namespace smartly::util
