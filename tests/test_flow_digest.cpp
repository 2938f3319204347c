// Byte-identity pin of the whole opt_tool flow. `opt_tool --gen SPEC
// --rewrite --stats -o OUT --write-aiger AAG` (frontend, §III, §II, the
// fraig ⇄ rewrite loop, AIG metric, Verilog and AIGER backends) runs on
// industrial:2 and on the ten public circuits at :0; the written netlist and
// AIGER file must hash to the FNV-1a digests below and the run must print
// the same AIG areas and §II, fraig and rewrite counters. The AIGER digest
// pins the AIG's node numbering, which no netlist or counter shows. A change that alters outputs on purpose updates these values in
// its own diff: a failure prints the new ones in the table's format.
//
// The suite drives the real binary; its path comes from $OPT_TOOL (set by
// CMake to the opt_tool target) with a ./opt_tool fallback for manual runs
// from the build directory.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct Pin {
  const char* spec;     ///< opt_tool --gen argument
  const char* netlist;  ///< FNV-1a 64 of the written Verilog, hex
  const char* aiger;    ///< FNV-1a 64 of the written ASCII AIGER, hex
  const char* counters; ///< see counters_of()
};

const Pin kPins[] = {
    {"industrial:2", "a35030903f656b57", "2c28423514e42fa0",
     "area 136294 47799 | rebuild 30 456 966 845 746 | sat 3733 161 256 0 0 417 | "
     "subgraphs 44048 1853 96 | fraig 7 1978 180 76 71 963 33 0 11 5 0 31 | "
     "rewrite 3 610202 2582 10601 34 34 29 65 0 2 36"},
    {"top_cache_axi:0", "95353fe3d6355c2c", "27e42831349b9b49",
     "area 87511 69311 | rebuild 31 186 1009 926 824 | sat 876 0 0 0 0 0 | "
     "subgraphs 37000 2184 94 | fraig 5 4160 1530 602 869 1987 59 0 66 12 0 54 | "
     "rewrite 3 964324 2849 14577 36 38 30 68 2 3 38"},
    {"pci_bridge32:0", "f59773ad613f7a70", "8c12cb3a101bfba6",
     "area 15002 12310 | rebuild 8 60 28 21 16 | sat 93 3 2 0 0 5 | "
     "subgraphs 263 14 95 | fraig 4 2782 624 64 559 2237 1 0 54 0 0 1 | "
     "rewrite 2 119039 162 1164 6 18 18 20 0 8 2"},
    {"wb_conmax:0", "53f1eaba5ea260b8", "f7a1cba3bdb32b86",
     "area 10702 5612 | rebuild 8 74 36 30 24 | sat 298 14 27 0 0 41 | "
     "subgraphs 1171 77 93 | fraig 3 994 236 16 220 799 0 0 40 0 0 0 | "
     "rewrite 2 49736 212 504 4 8 8 8 0 4 0"},
    {"mem_ctrl:0", "7fb91daec3a858fa", "865910da9aa3e2c8",
     "area 8771 7380 | rebuild 18 108 38 20 4 | sat 131 0 0 0 0 0 | "
     "subgraphs 106 0 100 | fraig 4 1742 382 3 379 1375 0 0 63 0 0 0 | "
     "rewrite 2 65591 236 1567 4 52 52 54 0 25 2"},
    {"wb_dma:0", "73f909fccd34de84", "cde486924ae3a4ae",
     "area 8258 5619 | rebuild 4 58 18 15 12 | sat 174 6 13 0 0 19 | "
     "subgraphs 662 52 92 | fraig 3 1236 355 0 354 988 1 0 52 0 0 1 | "
     "rewrite 2 51538 180 657 2 18 18 18 0 9 0"},
    {"tv80:0", "a468f6195f6edfdd", "737214ee9d027a8d",
     "area 3506 2846 | rebuild 14 68 50 38 28 | sat 93 1 2 0 0 3 | "
     "subgraphs 337 11 97 | fraig 4 859 284 14 270 693 0 0 68 0 0 0 | "
     "rewrite 2 24959 190 473 10 16 16 18 0 7 2"},
    {"usb_funct:0", "35f9be72c46c078a", "954d1c498efdcec8",
     "area 7209 5452 | rebuild 11 64 44 35 28 | sat 124 3 7 0 0 10 | "
     "subgraphs 466 24 95 | fraig 4 1142 410 26 383 950 1 0 54 0 0 1 | "
     "rewrite 2 48485 184 594 8 14 14 16 0 6 2"},
    {"ethernet:0", "f948e62273117eec", "a748584f67580707",
     "area 19071 18367 | rebuild 3 48 16 14 12 | sat 57 0 1 0 0 1 | "
     "subgraphs 167 2 99 | fraig 3 4802 916 2 914 3934 0 0 96 0 1 0 | "
     "rewrite 2 184986 206 1130 2 12 12 12 0 6 0"},
    {"riscv:0", "54ccdc66b14c6bee", "de465cdfa9658a68",
     "area 17330 15687 | rebuild 9 42 70 66 64 | sat 93 0 0 0 0 0 | "
     "subgraphs 1212 19 98 | fraig 4 3371 716 99 617 2643 0 0 61 0 0 0 | "
     "rewrite 2 150754 246 1369 7 15 15 25 0 3 10"},
    {"ac97_ctrl:0", "874d2a6c2b7e5d01", "65ea75e744323edd",
     "area 5448 4023 | rebuild 9 42 47 41 43 | sat 91 2 3 0 0 5 | "
     "subgraphs 284 5 98 | fraig 4 530 126 0 126 426 0 0 18 0 0 0 | "
     "rewrite 2 38948 158 1265 12 21 21 30 0 6 9"},
};

std::string tool_path() {
  const char* env = std::getenv("OPT_TOOL");
  return env != nullptr ? env : "./opt_tool";
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The AIG areas and every integer of the rebuild, sat, subgraphs, fraig and
/// rewrite lines of `--stats`, one group per line of output: "area 136294
/// 47799 | rebuild 30 456 ... | rewrite 3 610202 ...".
std::string counters_of(const std::string& out) {
  std::istringstream lines(out);
  std::string line, result;
  while (std::getline(lines, line)) {
    std::string label;
    size_t from = 0;
    const size_t at = line.find("AIG area ");
    if (line.rfind("module ", 0) == 0 && at != std::string::npos) {
      label = "area";
      from = at;
    } else {
      for (const char* l : {"rebuild", "sat", "subgraphs", "fraig", "rewrite"}) {
        if (line.rfind(std::string("  ") + l + ":", 0) == 0) {
          label = l;
          from = line.find(':');
        }
      }
    }
    if (label.empty())
      continue;
    if (label == "area") { // "AIG area A -> B (...)": the two areas only
      line = line.substr(from, line.find('(') - from);
      from = 0;
    }
    result += (result.empty() ? "" : " | ") + label;
    for (size_t i = from; i < line.size();) {
      if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
        ++i;
        continue;
      }
      const size_t j = line.find_first_not_of("0123456789", i);
      result += " " + line.substr(i, j == std::string::npos ? std::string::npos : j - i);
      i = j == std::string::npos ? line.size() : j;
    }
  }
  return result;
}

} // namespace

TEST(FlowDigest, GeneratedCircuitsKeepTheirBytes) {
  ASSERT_TRUE(std::filesystem::exists(tool_path()))
      << "opt_tool binary not found at " << tool_path() << " (set $OPT_TOOL)";
  const std::string dir = ::testing::TempDir();
  for (const Pin& pin : kPins) {
    std::string name = pin.spec;
    for (char& c : name)
      if (c == ':')
        c = '_';
    const std::string netlist = dir + "flow_digest_" + name + ".v";
    const std::string aiger = dir + "flow_digest_" + name + ".aag";
    const std::string out = dir + "flow_digest_" + name + ".out";
    const std::string cmd = tool_path() + " --gen " + pin.spec + " --rewrite --stats -o " +
                            netlist + " --write-aiger " + aiger + " > " + out + " 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << cmd << "\n" << slurp(out);
    const std::string digest = fnv1a(slurp(netlist));
    const std::string aiger_digest = fnv1a(slurp(aiger));
    const std::string counters = counters_of(slurp(out));
    std::string row = counters; // in the table's layout
    for (const char* group : {" | subgraphs", " | rewrite"})
      if (const size_t at = row.find(group); at != std::string::npos)
        row.replace(at, 3, " | \"\n     \"");
    EXPECT_TRUE(digest == pin.netlist && aiger_digest == pin.aiger && counters == pin.counters)
        << "now:\n    {\"" << pin.spec << "\", \"" << digest << "\", \"" << aiger_digest
        << "\",\n     \"" << row << "\"},";
    std::filesystem::remove(netlist);
    std::filesystem::remove(aiger);
    std::filesystem::remove(out);
  }
}
