#!/usr/bin/env python3
"""Benchmark-regression gate for the bench-regression / service-robustness CI jobs.

Usage:
    check_bench_regression.py [--require-families[=a,b,...]] <baselines.json> <bench_output.json>...

Each bench output is a BENCH_*.json document produced by a bench_* binary's
``--smoke --json`` run (they identify themselves through their "bench"
key). The script fails (exit 1) when

  * a correctness flag is false anywhere (CEC, determinism on two clones) —
    the smokes also fail on these themselves, but the gate re-checks the
    artifacts it archives so a silently-truncated JSON cannot pass;
  * a gated quality metric regresses past its checked-in baseline
    (ci/bench_baselines.json). Gated metrics are "smaller is better" totals
    (cell counts, AIG area, oracle query counts), so improvements pass; the
    script prints a note suggesting a baseline refresh when a metric is
    strictly better than its baseline;
  * the shared ``resource`` block is malformed or reports degradation: bench
    smoke runs are unbudgeted, so a tripped budget or nonzero skip counters
    mean the run was not the run the quality metrics claim to describe;
  * the shared ``obs`` block is missing or malformed: every bench carries
    per-stage wall/cpu timings and a metrics-registry snapshot since the
    observability release. Timing *values* are never gated (they are
    machine-dependent); the gate checks schema only — stages present with
    non-negative seconds, counters non-negative integers under the known
    engine prefixes. A counter under an unknown prefix is a warning, not a
    failure, so adding instrumentation does not require a lockstep script
    update.

A baseline bench with no corresponding output file is a warning by default:
CI legitimately runs subsets of the bench families (each job produces only
the benches it owns), and the gate must not force every job to produce
every BENCH_*.json. With ``--require-families=a,b,...`` the named baseline
benches become *required*: absence is an error — a smoke silently fell out
of the job's run list. Bare ``--require-families`` requires every family in
the baseline file.

Baselines are exact by default; a per-metric tolerance can be added as
``{"value": N, "tolerance": 0.02}`` (2% slack) if a metric ever turns out to
be machine-dependent. Most gated metrics today are deterministic by
construction (seeded generators, single-threaded engines).
"""

import json
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def load_json(path, what):
    """Load a JSON file with an actionable diagnostic instead of a traceback."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(fail(
            f"{what} {path!r} does not exist — pass the ci/bench_baselines.json "
            f"checked into the repo and the BENCH_*.json files produced by the "
            f"bench binaries' --smoke --json runs"))
    except IsADirectoryError:
        sys.exit(fail(f"{what} {path!r} is a directory, want a JSON file"))
    except json.JSONDecodeError as e:
        sys.exit(fail(
            f"{what} {path!r} is not valid JSON (line {e.lineno}, column {e.colno}: "
            f"{e.msg}) — a truncated file usually means the producing bench run "
            f"was killed; re-run it"))
    except OSError as e:
        sys.exit(fail(f"cannot read {what} {path!r}: {e.strerror or e}"))


def check_flag(doc, path, errors):
    node = doc
    for key in path[:-1]:
        node = node.get(key, {})
    value = node.get(path[-1])
    if value is not True:
        errors.append(f"{doc.get('bench', '?')}: flag {'.'.join(path)} is {value!r}, want true")


def check_rows_flag(doc, key, errors):
    for row in doc.get("circuits", []):
        if row.get(key) is not True:
            errors.append(
                f"{doc.get('bench', '?')}: circuit {row.get('name', '?')} has {key}="
                f"{row.get(key)!r}, want true"
            )


# The shared `resource` block every BENCH_*.json carries (bench_json.hpp
# resource_json). Smoke runs are unbudgeted: any trip or degradation counter
# means the archived quality metrics describe a halted, partial run.
RESOURCE_COUNTERS = (
    "conflicts", "propagations", "skipped_solves", "skipped_rewrites",
    "skipped_regions", "halted_engines",
)
RESOURCE_MUST_BE_ZERO = (
    "skipped_solves", "skipped_rewrites", "skipped_regions", "halted_engines",
)


def check_resource(doc, errors):
    bench = doc.get("bench", "?")
    resource = doc.get("resource")
    if not isinstance(resource, dict):
        errors.append(
            f"{bench}: missing or non-object 'resource' block — bench outputs "
            f"carry the guard's ResourceReport since the resource-governance "
            f"release; re-run the bench with a current binary")
        return
    if resource.get("tripped") != "none":
        errors.append(
            f"{bench}: resource.tripped is {resource.get('tripped')!r}, want 'none' "
            f"— an unbudgeted smoke run must never halt; its metrics describe a "
            f"partial run and cannot be gated")
    for key in RESOURCE_COUNTERS:
        value = resource.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(
                f"{bench}: resource.{key} is {value!r}, want a non-negative integer")
        elif key in RESOURCE_MUST_BE_ZERO and value != 0:
            errors.append(
                f"{bench}: resource.{key} = {value}, want 0 — the smoke run "
                f"degraded (engines skipped work), so its quality metrics are "
                f"not comparable to the baselines")


# Counter-name prefixes the instrumented engines publish (src/obs/). A
# counter outside these is a warning only: new instrumentation should not
# need a lockstep edit here to land.
KNOWN_COUNTER_PREFIXES = (
    "oracle.", "sweep.", "fraig.", "rewrite.", "txn.", "service.",
    "log.", "bench.", "cec.",
)


def check_obs(doc, errors, warnings):
    bench = doc.get("bench", "?")
    obs = doc.get("obs")
    if not isinstance(obs, dict):
        errors.append(
            f"{bench}: missing or non-object 'obs' block — bench outputs carry "
            f"per-stage timings and a counter snapshot since the observability "
            f"release; re-run the bench with a current binary")
        return
    stages = obs.get("stages")
    if not isinstance(stages, list) or not stages:
        errors.append(f"{bench}: obs.stages is {stages!r}, want a non-empty list")
    else:
        for stage in stages:
            if not isinstance(stage, dict) or not isinstance(stage.get("name"), str):
                errors.append(f"{bench}: obs stage {stage!r} lacks a string 'name'")
                continue
            for key in ("wall_seconds", "cpu_seconds"):
                v = stage.get(key)
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                    errors.append(
                        f"{bench}: obs stage {stage['name']!r} has {key}={v!r}, "
                        f"want a non-negative number")
    counters = obs.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{bench}: obs.counters is {counters!r}, want an object")
        return
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(
                f"{bench}: obs counter {name!r} is {value!r}, want a "
                f"non-negative integer")
        if not any(name.startswith(p) for p in KNOWN_COUNTER_PREFIXES):
            warnings.append(
                f"{bench}: obs counter {name!r} is outside the known prefixes "
                f"({', '.join(KNOWN_COUNTER_PREFIXES)}) — fine if intentional; "
                f"add the prefix to KNOWN_COUNTER_PREFIXES when it settles")


def check_metric(doc, metric_path, baseline_entry, errors, notes):
    node = doc
    for key in metric_path:
        if key not in node:
            errors.append(f"{doc.get('bench', '?')}: missing metric {'.'.join(metric_path)}")
            return
        node = node[key]
    current = node
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        errors.append(
            f"{doc.get('bench', '?')}: metric {'.'.join(metric_path)} is {current!r}, "
            f"want a number — the bench output schema changed; update this script's "
            f"CHECKS table or fix the bench"
        )
        return
    if isinstance(baseline_entry, dict):
        if "value" not in baseline_entry:
            errors.append(
                f"ci/bench_baselines.json: entry for {'.'.join(metric_path)} is a dict "
                f"without a 'value' key — write it as {{\"value\": N, \"tolerance\": 0.02}}"
            )
            return
        baseline = baseline_entry["value"]
        tolerance = baseline_entry.get("tolerance", 0.0)
    else:
        baseline = baseline_entry
        tolerance = 0.0
    if not isinstance(baseline, (int, float)) or isinstance(baseline, bool):
        errors.append(
            f"ci/bench_baselines.json: baseline for {'.'.join(metric_path)} is "
            f"{baseline!r}, want a number"
        )
        return
    limit = baseline * (1.0 + tolerance)
    name = f"{doc.get('bench', '?')}.{'.'.join(metric_path)}"
    if current > limit:
        errors.append(f"{name} regressed: {current} > baseline {baseline} (tol {tolerance})")
    elif current < baseline:
        notes.append(f"{name} improved: {current} < baseline {baseline} — consider refreshing "
                     f"ci/bench_baselines.json")
    else:
        print(f"ok: {name} = {current} (baseline {baseline})")


# Per-bench gated flags and "smaller is better" metrics. Metric paths are
# into the bench JSON; baseline keys into ci/bench_baselines.json.
CHECKS = {
    # bench_pass: total.queries counts the oracle queries of the serial
    # walk-everything reference, so a change that makes the section II walk
    # ask more questions for the same result shows up here.
    "pass": {
        "row_flags": ["decisions_match", "netlist_deterministic", "stats_deterministic"],
        "metrics": {"total_queries": ["total", "queries"]},
    },
    "sweep": {
        "flags": [["total", "cec_all"], ["total", "deterministic_all"]],
        "row_flags": ["cec_ok", "deterministic"],
        "metrics": {"total_cells_fraig": ["total", "cells_fraig"]},
    },
    "rewrite": {
        "flags": [["total", "cec_all"], ["total", "deterministic_all"]],
        "row_flags": ["cec_ok", "deterministic"],
        "metrics": {
            "total_cells_rewrite": ["total", "cells_rewrite"],
            "total_aig_rewrite": ["total", "aig_rewrite"],
        },
    },
    # Service mode (bench_service): the crash gauntlet's result set must stay
    # byte-identical to the uninterrupted run's, nothing may be spuriously
    # quarantined, the torn snapshot must be recovered from, and the warm
    # cache must actually serve (hit rate and throughput strictly above
    # cold). corruption_loss_events counts result files lost or corrupted
    # across kill -9 restarts; its baseline is zero and must stay there.
    "service": {
        "flags": [
            ["total", "results_match_after_crash"],
            ["total", "no_spurious_quarantine"],
            ["total", "snapshot_corruption_recovered"],
            ["total", "warm_hits_beat_cold"],
            ["total", "warm_beats_cold"],
        ],
        "metrics": {
            "corruption_loss_events": ["total", "corruption_loss_events"],
            "jobs_quarantined": ["total", "jobs_quarantined"],
        },
    },
}


def main(argv):
    args = list(argv[1:])
    required = None  # None: nothing required; []: all baseline families
    for a in list(args):
        if a == "--require-families":
            required = []
            args.remove(a)
        elif a.startswith("--require-families="):
            required = [f for f in a.split("=", 1)[1].split(",") if f]
            args.remove(a)
    if len(args) < 2:
        print(__doc__)
        return 2
    baselines = load_json(args[0], "baseline file")
    if not isinstance(baselines, dict):
        return fail(
            f"baseline file {args[0]!r} must be a JSON object mapping bench names "
            f"to metric baselines, got {type(baselines).__name__}")

    errors, notes, warnings = [], [], []
    seen = []
    for path in args[1:]:
        doc = load_json(path, "bench output")
        if not isinstance(doc, dict):
            errors.append(f"{path}: bench output must be a JSON object, got "
                          f"{type(doc).__name__}")
            continue
        bench = doc.get("bench")
        if bench not in CHECKS:
            known = ", ".join(sorted(CHECKS))
            errors.append(f"{path}: unknown bench {bench!r} (known: {known}) — "
                          f"was this produced by a bench binary's --smoke --json run?")
            continue
        seen.append(bench)
        spec = CHECKS[bench]
        bench_baselines = baselines.get(bench, {})
        if not isinstance(bench_baselines, dict):
            errors.append(f"ci/bench_baselines.json: entry for {bench!r} must be "
                          f"an object, got {type(bench_baselines).__name__}")
            bench_baselines = {}
        check_resource(doc, errors)
        check_obs(doc, errors, warnings)
        for flag_path in spec.get("flags", []):
            check_flag(doc, flag_path, errors)
        for key in spec.get("row_flags", []):
            check_rows_flag(doc, key, errors)
        for baseline_key, metric_path in spec.get("metrics", {}).items():
            if baseline_key not in bench_baselines:
                errors.append(f"ci/bench_baselines.json: missing {bench}.{baseline_key}")
                continue
            check_metric(doc, metric_path, bench_baselines[baseline_key], errors, notes)

    # An absent family is normally a warning: each CI job runs only the bench
    # subset it owns. Families named by --require-families are errors when
    # absent.
    for bench in baselines:
        if bench in seen:
            continue
        if required is not None and (not required or bench in required):
            errors.append(
                f"baseline bench {bench!r} has no corresponding output file and "
                f"--require-families names it — pass its BENCH_*.json or, if the "
                f"family is being retired, drop it from ci/bench_baselines.json")
        else:
            print(f"warn: baseline bench {bench!r} has no corresponding output "
                  f"file — family not gated this run")

    for w in warnings:
        print(f"warn: {w}")
    for note in notes:
        print(f"note: {note}")
    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        return 1
    print(f"bench regression gate passed ({len(seen)} benches)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
