// opt_tool — a small command-line optimizer around the library, in the
// spirit of `yosys -p "...; opt_muxtree; aigmap"`.
//
//   usage: opt_tool [options] [file.v]
//     --flow yosys|smartly|original   optimization flow (default smartly)
//     --no-sat                        disable §II SAT-based elimination
//     --no-rebuild                    disable §III muxtree restructuring
//     --threads N                     rewrite evaluation workers, and job workers
//                                     with --serve (0 = hw threads; output is
//                                     bit-identical for every value)
//     --fraig                         SAT-sweeping stage after the flow (merges
//                                     duplicate/complement/constant cones)
//     --fraig-pre                     SAT-sweeping stage before the flow
//     --rewrite                       deep-optimization loop after the flow:
//                                     fraig -> DAG-aware cut rewriting -> fraig
//                                     (subsumes --fraig)
//     --reduce                        also run opt_reduce (pmux/reduction merging)
//     --budget-conflicts N            cap total CDCL conflicts across the run
//                                     (deterministic: same halt at every thread
//                                     count; engines degrade, output stays
//                                     CEC-equivalent)
//     --deadline-ms N                 wall-clock deadline (nondeterministic!)
//     --max-growth PCT                cap netlist growth over the input, percent
//     --recover                       transactional stage recovery: failures
//                                     roll back, quarantine, retry, then skip
//     --retries N                     rollback+retry attempts per stage
//                                     (default 3; implies --recover)
//     --paranoid                      CEC every stage's output against its
//                                     snapshot; miscompares are rolled back and
//                                     bisected to the faulting round (implies
//                                     --recover)
//     --repro-dir DIR                 write a repro bundle per recovery event
//                                     (implies --recover)
//     --replay DIR                    re-execute a repro bundle's stage from its
//                                     recorded design/plan/quarantine; exits 0
//                                     when the recorded failure reproduces
//     --serve DIR                     crash-safe service mode: watch DIR/jobs
//                                     for spooled netlists, run the deep flow on
//                                     each, publish results to DIR/done (see
//                                     README "Service mode"; SIGTERM drains and
//                                     exits 0). --budget-conflicts/--deadline-ms
//                                     become per-job budgets; --threads sizes
//                                     the worker pool.
//     --serve-once                    with --serve: drain the spool, then exit
//                                     instead of polling (batch mode, tests)
//     --serve-queue-max N             admission bound per poll cycle; backlog
//                                     beyond it is shed with an explicit
//                                     response in DIR/failed (default 64)
//     --serve-poll-ms N               spool scan interval when idle (default 50)
//     --serve-crash-threshold N       journal claims before a job is quarantined
//                                     as a crash looper (default 2; soak runs
//                                     raise it so random kill timing cannot
//                                     quarantine healthy jobs)
//     --serve-crash-after-jobs N      test hook: _exit(137) after N completed
//                                     jobs (crash-recovery harness)
//     --serve-crash-snapshot          test hook: tear the next warm-cache
//                                     snapshot write, then _exit(137)
//     --gen FAMILY[:N]                optimize a generated benchmark instead of
//                                     reading Verilog (FAMILY = industrial or a
//                                     public-suite circuit name; N varies it)
//     --fault-seed N / --fault-throw PM / --fault-unknown PM
//     --fault-site SUBSTR / --fault-unit-keyed
//                                     install a deterministic fault plan for the
//                                     run (test harness; PM is permille)
//     --inject-miscompare             deliberately corrupt the netlist in a
//                                     protected stage (test harness for
//                                     --paranoid and the exit-code contract)
//     --check                         equivalence-check the result
//     --stats                         print pass statistics
//     -o out.v                        write the optimized netlist as Verilog
//     --write-aiger out.aag           write the bit-blasted AIG (ASCII AIGER)
//     --trace-out trace.json          write a Chrome trace-event JSON of the
//                                     run (spans for every pipeline stage and
//                                     per-region/round/class/root child spans;
//                                     load in chrome://tracing or Perfetto)
//     --dump-rtlil                    dump the optimized netlist IR to stdout
//     (reads stdin when no file is given)
//
// Exit codes (the contract tests/test_opt_tool_cli.cpp asserts):
//   0  success
//   1  parse/usage/IO error (ParseError diagnostics go to stderr as
//      file:line:col: message)
//   2  CEC miscompare (--check found a real inequivalence)
//   3  budget exhausted or CEC inconclusive (run degraded; output is still
//      CEC-equivalent unless 2 also applied)
//   4  recovered: at least one stage was rolled back (quarantine/skip); the
//      output is the surviving stages' work
#include "aig/aigmap.hpp"
#include "backend/aiger.hpp"
#include "backend/write_rtlil.hpp"
#include "backend/write_verilog.hpp"
#include "benchgen/industrial.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "obs/trace.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/opt_muxtree.hpp"
#include "opt/opt_reduce.hpp"
#include "opt/pipeline.hpp"
#include "service/service.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "verilog/elaborate.hpp"
#include "verilog/parse_error.hpp"

#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

using namespace smartly;

namespace {

/// Set by SIGTERM/SIGINT in --serve mode; OptService polls it between
/// batches and drains gracefully (finish in-flight jobs, flush the warm
/// cache, exit 0).
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_stop_handler(int) { g_serve_stop = 1; }

// Exit-code contract (see header comment and README "Exit codes").
constexpr int kExitOk = 0;
constexpr int kExitParse = 1;
constexpr int kExitMiscompare = 2;
constexpr int kExitBudget = 3;
constexpr int kExitRecovered = 4;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: opt_tool [--flow yosys|smartly|original] [--no-sat] "
               "[--no-rebuild] [--threads N] [--fraig] [--fraig-pre] [--rewrite] "
               "[--reduce] [--budget-conflicts N] [--deadline-ms N] [--max-growth PCT] "
               "[--recover] [--retries N] [--paranoid] [--repro-dir DIR] "
               "[--replay DIR] [--serve DIR [--serve-once] [--serve-queue-max N] "
               "[--serve-poll-ms N]] [--gen FAMILY[:N]] "
               "[--fault-seed N] [--fault-throw PM] [--fault-unknown PM] "
               "[--fault-site SUBSTR] [--fault-unit-keyed] [--inject-miscompare] "
               "[--check] [--stats] [-o out.v] [--write-aiger out.aag] "
               "[--trace-out trace.json] [--dump-rtlil] [file.v]\n"
               "  resource governance: --budget-conflicts caps total CDCL conflicts\n"
               "  (deterministic; engines degrade and the output stays CEC-equivalent),\n"
               "  --max-growth caps cell-count growth over the input in percent,\n"
               "  --deadline-ms sets a wall-clock deadline (nondeterministic).\n"
               "  recovery: --recover wraps every stage in a snapshot/rollback\n"
               "  transaction with per-unit quarantine; --paranoid adds a CEC of\n"
               "  every stage output; --repro-dir DIR emits replayable bundles.\n"
               "  exit codes: 0 ok, 1 parse/usage, 2 miscompare, 3 budget/inconclusive,\n"
               "  4 recovered-with-rollback.\n"
               "  observability: --trace-out FILE writes a Chrome trace-event JSON\n"
               "  (chrome://tracing / ui.perfetto.dev; see README \"Observability\").\n");
  std::exit(kExitParse);
}

/// Deliberately unsound, deterministic corruption (test harness): swap the
/// A/B ports of the first mux whose inputs differ — behaviorally an inverted
/// select, which paranoid CEC must catch. No-op on mux-free netlists.
void corrupt_module(rtlil::Module& m) {
  for (const auto& cell : m.cells()) {
    if (cell->type() != rtlil::CellType::Mux)
      continue;
    const rtlil::SigSpec a = cell->port(rtlil::Port::A);
    const rtlil::SigSpec b = cell->port(rtlil::Port::B);
    if (a == b)
      continue;
    cell->set_port(rtlil::Port::A, b);
    cell->set_port(rtlil::Port::B, a);
    return;
  }
}

/// Build the netlist for --gen FAMILY[:N].
benchgen::BenchCircuit generated_circuit(const std::string& spec) {
  std::string family = spec;
  uint64_t variant = 0;
  if (const size_t colon = spec.rfind(':'); colon != std::string::npos) {
    family = spec.substr(0, colon);
    char* end = nullptr;
    variant = std::strtoull(spec.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      std::fprintf(stderr, "opt_tool: --gen wants FAMILY[:N], got '%s'\n", spec.c_str());
      std::exit(kExitParse);
    }
  }
  if (family == "industrial")
    return benchgen::generate_industrial(static_cast<int>(variant % 8), /*scale=*/1,
                                         0x5eedULL + variant);
  // profile_for throws on unknown names; the top-level handler turns that
  // into exit code 1 with the message on stderr.
  return benchgen::generate_circuit(family, benchgen::profile_for(family),
                                    0x5eedULL + variant);
}

/// --replay DIR: re-execute the bundle's stage from its recorded pre-stage
/// design with the recorded fault plan and quarantine set installed. Engines
/// are deterministic, so a fault bundle re-faults at the same site:unit and
/// a miscompare bundle miscompares again. Exits 0 when the recorded failure
/// reproduces, 1 otherwise.
int replay_bundle(const std::string& dir) {
  util::ReproBundle b;
  std::string err;
  if (!util::read_repro_bundle(dir, &b, &err)) {
    std::fprintf(stderr, "opt_tool: --replay: %s\n", err.c_str());
    return kExitParse;
  }
  std::optional<util::FaultScope> scope;
  if (b.plan_active)
    scope.emplace(b.plan);
  const util::QuarantineSet quarantine = util::QuarantineSet::parse(b.quarantine);

  auto design = verilog::read_verilog(b.design_verilog, dir + "/design.v");
  if (!design->top()) {
    std::fprintf(stderr, "opt_tool: --replay: no module in bundle design\n");
    return kExitParse;
  }
  rtlil::Module& top = *design->top();
  const auto snapshot = rtlil::clone_design(*design);

  util::ResourceGuard guard((util::ResourceBudgets()));
  bool faulted = false, miscompare = false;
  std::string site;
  uint64_t unit = 0;
  try {
    // Engine options are the flows' defaults — the bundle's free-form
    // options line is informational, not machine-applied.
    if (b.stage == "fraig") {
      sweep::FraigOptions o;
      o.guard = &guard;
      o.quarantine = &quarantine;
      sweep::fraig_sweep(top, o);
      opt::opt_clean(top);
    } else if (b.stage == "rewrite") {
      rewrite::RewriteOptions o;
      o.guard = &guard;
      o.quarantine = &quarantine;
      rewrite::rewrite_sweep(top, o);
      opt::opt_clean(top);
    } else if (b.stage == "sweep") {
      core::SatRedundancyOptions o;
      o.guard = &guard;
      o.quarantine = &quarantine;
      core::sat_redundancy_parallel(top, o, 1);
      opt::opt_expr(top);
      opt::opt_clean(top);
    } else if (b.stage == "rebuild") {
      core::mux_restructure(top, {});
      opt::opt_expr(top);
      opt::opt_clean(top);
    } else if (b.stage == "muxtree") {
      opt::opt_muxtree(top);
      opt::opt_expr(top);
      opt::opt_clean(top);
    } else if (b.stage == "opt-pre" || b.stage == "opt-post") {
      opt::coarse_opt(top);
    } else if (b.stage == "corrupt") {
      corrupt_module(top);
    } else {
      std::fprintf(stderr, "opt_tool: --replay: unknown stage '%s'\n", b.stage.c_str());
      return kExitParse;
    }
  } catch (const util::FaultInjected& e) {
    faulted = true;
    site = e.site();
    unit = e.unit();
  }
  if (!faulted && guard.tripped() == util::BudgetKind::Fault) {
    const util::FaultReport fr = guard.fault_report();
    faulted = fr.valid;
    site = fr.site;
    unit = fr.unit;
  }
  if (!faulted) {
    const cec::CecResult r = cec::check_equivalence(*snapshot->top(), top);
    miscompare = !r.equivalent && !r.inconclusive;
  }

  bool reproduced;
  if (!b.site.empty())
    reproduced = faulted && site == b.site && unit == b.unit;
  else
    reproduced = faulted || miscompare;
  if (faulted)
    std::printf("replay %s: stage '%s' faulted at %s:%llx (recorded %s:%llx) -> %s\n",
                dir.c_str(), b.stage.c_str(), site.c_str(),
                static_cast<unsigned long long>(unit), b.site.c_str(),
                static_cast<unsigned long long>(b.unit),
                reproduced ? "REPRODUCED" : "DIFFERENT");
  else
    std::printf("replay %s: stage '%s' %s (recorded reason '%s') -> %s\n", dir.c_str(),
                b.stage.c_str(), miscompare ? "miscompared against the bundle design" : "ran clean",
                b.reason.c_str(), reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return reproduced ? kExitOk : kExitParse;
}

} // namespace

int main(int argc, char** argv) {
  std::string flow = "smartly";
  std::string path, out_verilog, out_aiger, gen_spec, replay_dir, serve_dir, trace_out;
  service::ServiceOptions serve_options;
  bool check = false, stats = false, reduce = false, dump = false;
  bool fraig_post = false, fraig_pre = false, rewrite_post = false;
  bool inject_miscompare = false;
  core::SmartlyOptions options;
  util::ResourceBudgets budgets;
  util::FaultPlan fault_plan;
  bool fault_active = false;

  auto int_flag = [&](const char* flag, int i, int64_t min) -> int64_t {
    char* end = nullptr;
    const long long n = std::strtoll(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0' || n < min) {
      std::fprintf(stderr, "opt_tool: %s wants an integer >= %lld, got '%s'\n", flag,
                   static_cast<long long>(min), argv[i]);
      std::exit(kExitParse);
    }
    return static_cast<int64_t>(n);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flow") {
      if (++i >= argc)
        usage();
      flow = argv[i];
    } else if (arg == "--no-sat") {
      options.enable_sat = false;
    } else if (arg == "--no-rebuild") {
      options.enable_rebuild = false;
    } else if (arg == "--threads") {
      if (++i >= argc)
        usage();
      char* end = nullptr;
      const long n = std::strtol(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 0) {
        std::fprintf(stderr, "opt_tool: --threads wants a non-negative integer, got '%s'\n",
                     argv[i]);
        return kExitParse;
      }
      options.threads = static_cast<int>(n);
    } else if (arg == "--fraig") {
      fraig_post = true;
    } else if (arg == "--fraig-pre") {
      fraig_pre = true;
    } else if (arg == "--rewrite") {
      rewrite_post = true;
    } else if (arg == "--budget-conflicts") {
      if (++i >= argc)
        usage();
      budgets.solver_conflicts = int_flag("--budget-conflicts", i, 0);
    } else if (arg == "--deadline-ms") {
      if (++i >= argc)
        usage();
      budgets.deadline_ms = int_flag("--deadline-ms", i, 0);
    } else if (arg == "--max-growth") {
      if (++i >= argc)
        usage();
      budgets.max_growth_pct = int_flag("--max-growth", i, 0);
    } else if (arg == "--recover") {
      options.recovery.enabled = true;
    } else if (arg == "--retries") {
      if (++i >= argc)
        usage();
      options.recovery.max_retries = static_cast<int>(int_flag("--retries", i, 0));
      options.recovery.enabled = true;
    } else if (arg == "--paranoid") {
      options.recovery.paranoid = true;
      options.recovery.enabled = true;
    } else if (arg == "--repro-dir") {
      if (++i >= argc)
        usage();
      options.recovery.repro_dir = argv[i];
      options.recovery.enabled = true;
    } else if (arg == "--replay") {
      if (++i >= argc)
        usage();
      replay_dir = argv[i];
    } else if (arg == "--serve") {
      if (++i >= argc)
        usage();
      serve_dir = argv[i];
    } else if (arg == "--serve-once") {
      serve_options.drain_and_exit = true;
    } else if (arg == "--serve-queue-max") {
      if (++i >= argc)
        usage();
      serve_options.queue_max = static_cast<int>(int_flag("--serve-queue-max", i, 1));
    } else if (arg == "--serve-poll-ms") {
      if (++i >= argc)
        usage();
      serve_options.poll_ms = static_cast<int>(int_flag("--serve-poll-ms", i, 1));
    } else if (arg == "--serve-crash-threshold") {
      if (++i >= argc)
        usage();
      serve_options.crash_threshold =
          static_cast<int>(int_flag("--serve-crash-threshold", i, 2));
    } else if (arg == "--serve-crash-after-jobs") {
      if (++i >= argc)
        usage();
      serve_options.crash_after_jobs =
          static_cast<uint64_t>(int_flag("--serve-crash-after-jobs", i, 1));
    } else if (arg == "--serve-crash-snapshot") {
      serve_options.crash_during_snapshot = true;
    } else if (arg == "--gen") {
      if (++i >= argc)
        usage();
      gen_spec = argv[i];
    } else if (arg == "--fault-seed") {
      if (++i >= argc)
        usage();
      fault_plan.seed = static_cast<uint64_t>(int_flag("--fault-seed", i, 0));
    } else if (arg == "--fault-throw") {
      if (++i >= argc)
        usage();
      fault_plan.throw_permille = static_cast<uint32_t>(int_flag("--fault-throw", i, 0));
      fault_active = true;
    } else if (arg == "--fault-unknown") {
      if (++i >= argc)
        usage();
      fault_plan.unknown_permille = static_cast<uint32_t>(int_flag("--fault-unknown", i, 0));
      fault_active = true;
    } else if (arg == "--fault-site") {
      if (++i >= argc)
        usage();
      fault_plan.site_filter = argv[i];
    } else if (arg == "--fault-unit-keyed") {
      fault_plan.unit_keyed = true;
    } else if (arg == "--inject-miscompare") {
      inject_miscompare = true;
    } else if (arg == "--reduce") {
      reduce = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--dump-rtlil") {
      dump = true;
    } else if (arg == "-o") {
      if (++i >= argc)
        usage();
      out_verilog = argv[i];
    } else if (arg == "--write-aiger") {
      if (++i >= argc)
        usage();
      out_aiger = argv[i];
    } else if (arg == "--trace-out") {
      if (++i >= argc)
        usage();
      trace_out = argv[i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
      if (trace_out.empty())
        usage();
    } else if (arg.rfind("--", 0) == 0 || arg.rfind("-", 0) == 0) {
      usage();
    } else {
      path = arg;
    }
  }

  // Trace plumbing, armed before any mode dispatch so every path (flow,
  // serve, replay) is covered. The writer's destructor fires on every normal
  // return from main — after the root span below closes, because the span is
  // declared later. (std::exit in usage() skips it: no flow ran, no trace.)
  struct TraceOutput {
    std::string path;
    ~TraceOutput() {
      if (path.empty())
        return;
      std::string err;
      if (!obs::write_chrome_trace(path, &err))
        std::fprintf(stderr, "opt_tool: --trace-out: %s\n", err.c_str());
    }
  } trace_output;
  if (!trace_out.empty()) {
    obs::set_tracing(true);
    trace_output.path = trace_out;
  }
  const obs::Span root_span("tool", "opt_tool.flow");

  if (!serve_dir.empty()) {
    serve_options.threads = options.threads;
    serve_options.budgets = budgets; // per-job: each job gets the full allowance
    serve_options.stop_flag = &g_serve_stop;
    std::signal(SIGTERM, serve_stop_handler);
    std::signal(SIGINT, serve_stop_handler);
    service::OptService daemon(serve_dir, serve_options);
    return daemon.run();
  }

  if (!replay_dir.empty()) {
    try {
      return replay_bundle(replay_dir);
    } catch (const verilog::ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return kExitParse;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "opt_tool: --replay: %s\n", e.what());
      return kExitParse;
    }
  }

  std::string source;
  if (!gen_spec.empty()) {
    try {
      const benchgen::BenchCircuit circuit = generated_circuit(gen_spec);
      source = circuit.verilog;
      path = "<gen:" + circuit.name + ">";
    } catch (const std::exception& e) {
      std::fprintf(stderr, "opt_tool: --gen: %s\n", e.what());
      return kExitParse;
    }
  } else if (path.empty()) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  } else {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "opt_tool: cannot open %s\n", path.c_str());
      return kExitParse;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    source = ss.str();
  }

  // Test-harness fault plan: installed for the whole optimization run (CEC
  // and backends run outside the engines' fault sites, so --check verifies
  // the faulted run's output).
  std::optional<util::FaultScope> fault_scope;
  if (fault_active)
    fault_scope.emplace(fault_plan);

  // One governor for the whole invocation: the smartly flow's engines and the
  // standalone --fraig/--rewrite stages all charge the same counters, so the
  // budgets cap the run end to end. CEC stays ungoverned on purpose — the
  // point of --check is to verify whatever the degraded run produced.
  // Recovery needs a guard too (fault trips are reported through it), so one
  // is armed whenever budgets, faults, or recovery are in play.
  util::ResourceBudgets effective_budgets = budgets;
  util::ResourceGuard guard(effective_budgets);
  const bool governed = budgets.any();
  const bool guarded = governed || fault_active || options.recovery.enabled;
  if (guarded) {
    options.sat.guard = &guard;
    options.fraig.guard = &guard;
    options.rewrite.guard = &guard;
  }

  try {
    auto design = verilog::read_verilog(source, path.empty() ? "<stdin>" : path);
    if (!design->top()) {
      std::fprintf(stderr, "opt_tool: no module found\n");
      return kExitParse;
    }
    rtlil::Module& top = *design->top();
    const size_t original = aig::aig_area(top);
    auto golden = check ? rtlil::clone_design(*design) : nullptr;
    if (guarded)
      guard.set_growth_baseline(top.cells().size());

    // Tool-level recovery context: covers the standalone --fraig-pre/--fraig/
    // --rewrite stages and the --inject-miscompare harness stage. The smartly
    // flow keeps its own context internally; stats merge below.
    opt::RecoveryContext tool_rctx;
    tool_rctx.options = options.recovery;
    tool_rctx.engine_options = "opt_tool standalone stage";
    opt::RecoveryContext* trp = options.recovery.enabled ? &tool_rctx : nullptr;

    sweep::FraigOptions fraig_options;
    if (guarded)
      fraig_options.guard = &guard;
    sweep::FraigStats fraig_st;
    if (fraig_pre)
      fraig_st += opt::fraig_stage(top, fraig_options, trp);

    core::SmartlyStats st;
    if (flow == "original") {
      opt::original_flow(top);
    } else if (flow == "yosys") {
      opt::yosys_flow(top);
    } else if (flow == "smartly") {
      st = core::smartly_flow(top, options);
    } else {
      usage();
    }
    // --rewrite subsumes --fraig: the loop below opens with its own fraig
    // stage, so a standalone post-flow fraig would just re-sweep a fixpoint.
    if (fraig_post && !rewrite_post)
      fraig_st += opt::fraig_stage(top, fraig_options, trp);
    rewrite::RewriteStats rewrite_st;
    if (rewrite_post) {
      opt::DeepOptOptions deep;
      deep.fraig = fraig_options;
      deep.rewrite.threads = options.threads;
      deep.recovery = trp;
      if (guarded)
        deep.rewrite.guard = &guard;
      const opt::DeepOptStats ds = opt::fraig_rewrite_loop(top, deep);
      fraig_st += ds.fraig;
      rewrite_st += ds.rewrite;
    }
    if (inject_miscompare) {
      // Harness stage: corrupts the netlist deterministically. Unprotected
      // (no --recover) it survives to the output and --check exits 2; under
      // --paranoid it is detected, rolled back, and skipped (exit 4).
      opt::run_protected_stage(top, "corrupt", trp, guarded ? &guard : nullptr,
                               [](rtlil::Module& m, int) { corrupt_module(m); });
    }
    if (reduce) {
      opt::opt_reduce(top);
      opt::opt_clean(top);
    }

    util::RecoveryStats recovery = std::move(st.recovery);
    recovery += tool_rctx.stats;

    const size_t optimized = aig::aig_area(top);
    std::printf("module %s: AIG area %zu -> %zu (%.2f%% reduction)\n", top.name().c_str(),
                original, optimized,
                original ? 100.0 * (double(original) - double(optimized)) / double(original)
                         : 0.0);

    if (stats && flow == "smartly") {
      std::printf("  rebuild: %zu/%zu trees rebuilt, %zu muxes removed, %zu added, "
                  "%zu eq freed\n",
                  st.rebuild.trees_rebuilt, st.rebuild.trees_seen, st.rebuild.mux_removed,
                  st.rebuild.mux_added, st.rebuild.eq_disconnected);
      std::printf("  sat: %zu queries (syntactic %zu, inference %zu, sim %zu, sat %zu), "
                  "%zu muxes collapsed\n",
                  st.sat.queries, st.sat.decided_syntactic, st.sat.decided_inference,
                  st.sat.decided_sim, st.sat.decided_sat, st.sat.walker.mux_collapsed);
      std::printf("  subgraphs: %zu gates seen, %zu kept (%.0f%% dismissed)\n",
                  st.sat.gates_seen, st.sat.gates_kept,
                  st.sat.gates_seen
                      ? 100.0 * (1.0 - double(st.sat.gates_kept) / double(st.sat.gates_seen))
                      : 0.0);
    }
    if (stats && (fraig_pre || fraig_post || rewrite_post)) {
      std::printf("  fraig: %zu rounds, %zu classes, %zu sat queries "
                  "(%zu equal, %zu const, %zu structural, %zu disproved, %zu unknown), "
                  "%zu cells merged (%zu inverters), %zu pre-merged, %zu cex patterns\n",
                  fraig_st.rounds, fraig_st.classes, fraig_st.sat_queries,
                  fraig_st.proved_equal, fraig_st.proved_constant, fraig_st.proved_structural,
                  fraig_st.disproved, fraig_st.unknown, fraig_st.merged_cells,
                  fraig_st.inverter_cells, fraig_st.pre_merged, fraig_st.cex_patterns);
    }
    if (stats && rewrite_post) {
      std::printf("  rewrite: %zu rounds, %zu cuts, %zu roots, %zu candidates "
                  "(%zu npn classes), %zu rewrites (%zu zero-gain), "
                  "%zu cells added, %zu gates reused, %zu cells shared, "
                  "%zu predicted dead\n",
                  rewrite_st.rounds, rewrite_st.cuts, rewrite_st.roots_evaluated,
                  rewrite_st.candidates, rewrite_st.npn_classes, rewrite_st.rewrites,
                  rewrite_st.zero_gain_rewrites, rewrite_st.cells_added,
                  rewrite_st.gates_reused, rewrite_st.cells_shared,
                  rewrite_st.predicted_dead);
    }

    if (governed) {
      const util::ResourceReport rr = guard.report();
      std::printf("  resource: %llu conflicts, %llu propagations%s%s\n",
                  static_cast<unsigned long long>(rr.conflicts),
                  static_cast<unsigned long long>(rr.propagations),
                  rr.halted() ? ", halted by " : "",
                  rr.halted() ? util::budget_kind_name(rr.tripped) : "");
      if (rr.halted())
        std::printf("  resource: %llu solves, %llu rewrites, %llu regions "
                    "skipped after the halt (%llu engines stopped early)\n",
                    static_cast<unsigned long long>(rr.skipped_solves),
                    static_cast<unsigned long long>(rr.skipped_rewrites),
                    static_cast<unsigned long long>(rr.skipped_regions),
                    static_cast<unsigned long long>(rr.halted_engines));
    }

    if (recovery.any()) {
      std::printf("  recovery: %llu stages, %llu rollbacks, %llu retries, "
                  "%llu quarantined, %llu skipped, %llu bundles\n",
                  static_cast<unsigned long long>(recovery.stages),
                  static_cast<unsigned long long>(recovery.rollbacks),
                  static_cast<unsigned long long>(recovery.retries),
                  static_cast<unsigned long long>(recovery.quarantined_units),
                  static_cast<unsigned long long>(recovery.stages_skipped),
                  static_cast<unsigned long long>(recovery.bundles_written));
      if (options.recovery.paranoid)
        std::printf("  recovery: %llu paranoid checks, %llu miscompares\n",
                    static_cast<unsigned long long>(recovery.paranoid_checks),
                    static_cast<unsigned long long>(recovery.paranoid_miscompares));
      for (const util::RecoveryEvent& ev : recovery.events) {
        std::printf("  recovery: stage '%s' attempt %d: %s", ev.stage.c_str(), ev.attempt,
                    ev.reason.c_str());
        if (!ev.site.empty())
          std::printf(" at %s:%llx", ev.site.c_str(),
                      static_cast<unsigned long long>(ev.unit));
        if (ev.round >= 0)
          std::printf(" (bisected to round %d)", ev.round);
        if (ev.quarantined)
          std::printf(" [quarantined]");
        if (ev.skipped)
          std::printf(" [stage skipped]");
        if (!ev.bundle_dir.empty())
          std::printf(" bundle=%s", ev.bundle_dir.c_str());
        std::printf("\n");
      }
    }

    if (!out_verilog.empty()) {
      std::ofstream f(out_verilog);
      f << backend::write_verilog(top);
      std::printf("  wrote %s\n", out_verilog.c_str());
    }
    if (!out_aiger.empty()) {
      std::ofstream f(out_aiger);
      f << backend::write_aiger_ascii(aig::aigmap(top).aig);
      std::printf("  wrote %s\n", out_aiger.c_str());
    }
    if (dump)
      std::fputs(backend::write_rtlil(top).c_str(), stdout);

    bool miscompare = false, inconclusive = false;
    if (check && golden) {
      const auto cec = cec::check_equivalence(*golden->top(), top);
      miscompare = !cec.equivalent && !cec.inconclusive;
      inconclusive = cec.inconclusive;
      std::printf("  equivalence: %s%s\n",
                  cec.equivalent ? "PASS" : (cec.inconclusive ? "INCONCLUSIVE" : "FAIL"),
                  miscompare ? (" at " + cec.failing_output).c_str() : "");
    }

    // Exit-code contract, most severe applicable code wins (2 < 3 < 4 in
    // severity order below 1).
    if (miscompare)
      return kExitMiscompare;
    const util::ResourceReport rr = guard.report();
    if (inconclusive || (guarded && rr.halted()))
      return kExitBudget;
    if (recovery.rollbacks > 0 || recovery.stages_skipped > 0)
      return kExitRecovered;
  } catch (const verilog::ParseError& e) {
    // Editor-friendly diagnostic: file:line:col: message.
    std::fprintf(stderr, "%s\n", e.what());
    return kExitParse;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opt_tool: %s\n", e.what());
    return kExitParse;
  }
  return kExitOk;
}
