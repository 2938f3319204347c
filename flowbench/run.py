#!/usr/bin/env python3
"""flowbench: the end-to-end benchmark of the smaRTLy optimizer.

    python3 flowbench/run.py --workload W --seed N --seconds S --trace 0|1 [--variant V]
    python3 flowbench/run.py --self-test

Paths are resolved against this file. The worker (flowbench.cpp) is built
from ../src with CMake into $CARGO_TARGET_DIR (default .bench_build at the
repository root), which also holds a run's scratch inputs and outputs and
the last Chrome trace of each workload (flowbench-traces/<workload>.json).

One invocation:
  1. generates the workload's Verilog inputs: --seed shuffles their
     statement order, --variant shifts the generator seeds (workloads.json);
  2. repeats the workload's flow, each time in a fresh worker process that
     receives only the Verilog text, until --seconds have passed (at least
     three runs), and reports medians;
  3. checks every output outside the measured process: a simulation against
     its input through sim::Evaluator, equal output digests across runs,
     the CEC verdict on public_check, and the job outcome on service_burst;
  4. with --trace 1, replays the flow once more with tracing on, one public
     layer call per span, and reports the per-layer metrics instead of the
     end-to-end ones.

The last line of stdout is the result object; the line before it records
provenance (machine, compiler, build type, commit, threads, seeds, and every
run's flow_s).
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_RUNS = 3
BUDGET_S = 170  # after the build, everything must end within this


class BenchError(Exception):
    pass


def load_spec():
    """workloads.json, plus the metric lists (name -> unit) of BENCHMARK.json."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec["end_to_end"] = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    spec["per_layer"] = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return spec


def build_root():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def run_checked(cmd, what, timeout=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{what} failed with exit code {proc.returncode}")
    return proc


def build():
    """Configure (once) and build the worker; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no library sources at {os.path.join(ROOT, 'src')}")
    bdir = os.path.join(build_root(), "flowbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        run_checked(cfg, "cmake configure")
    run_checked(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 4)], "cmake build")
    return os.path.join(bdir, "flowbench")


class Worker:
    """Runs worker modes; a worker still running at the deadline is killed."""

    def __init__(self, exe):
        self.exe = exe
        self.deadline = time.monotonic() + BUDGET_S

    def __call__(self, mode, **options):
        cmd = [self.exe, mode]
        for key, value in options.items():
            cmd += ["--" + key, str(value)]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = run_checked(cmd, "flowbench " + mode, timeout=timeout)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_names(inputs):
    with open(os.path.join(inputs, "inputs.txt")) as f:
        return [line.strip() for line in f if line.strip()]


# ----------------------------------------------------------------- one run

def flow_run(worker, cfg, inputs, out, trace=None, cec=False):
    """One fresh-process flow run; returns (result, {design: digest}, failed designs)."""
    opts = {"threads": cfg["threads"], "in": inputs, "out": out, "cec": int(cec)}
    if trace:
        opts["trace"] = trace
    res = worker("flow", **opts)
    digests = {n: sha256_file(os.path.join(out, n + ".v")) for n in read_names(inputs)}
    # CEC verdict: anything but "equivalent" fails the design.
    return res, digests, set(res["not_equivalent"])


def service_run(worker, cfg, inputs, snapshot, spool, trace=None):
    """One fresh-process burst; a job fails unless it ends in done/."""
    opts = {"threads": cfg["threads"], "snapshot": snapshot, "spool": spool, "in": inputs}
    if trace:
        opts["trace"] = trace
    res = worker("service", **opts)
    digests, failed = {}, set()
    done = os.path.join(spool, "done")
    for name in read_names(inputs):
        result = os.path.join(done, name + ".result")
        if os.path.exists(result):  # written last: its presence commits the pair
            digests[name] = sha256_file(os.path.join(done, name + ".v")) + sha256_file(result)
        else:
            failed.add(name)  # failed/, quarantine/, or shed
    return res, digests, failed


def count_failures(names, runs, reference, bad_outputs):
    """Operations (one design in one run) attempted and failed.

    A design fails in a run when the run reports it failed (CEC verdict or
    job outcome), when its output digest differs from the reference run's,
    or when its reference output is wrong (simulation check or CEC).
    """
    attempted = failed = 0
    for failed_in_run, digests in runs:
        for name in names:
            attempted += 1
            if (name in failed_in_run or name in bad_outputs
                    or digests.get(name) is None or digests.get(name) != reference.get(name)):
                failed += 1
    return attempted, failed


# --------------------------------------------------------------- the trace

def span_times(trace_path):
    """Seconds per name of the benchmark's own spans (category "flowbench")."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    sums = {}
    for e in events:
        if e.get("cat") == "flowbench" and e.get("ph") == "X":
            sums[e["name"]] = sums.get(e["name"], 0.0) + e["dur"] * 1e-6
    return sums


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spec, traced, spans, flow_median):
    """Counts from the traced run's stats, times from the spans; a layer the
    workload does not call reads 0."""
    v = {name: 0.0 for name in spec["per_layer"]}
    v.update((k, x) for k, x in traced.items() if k in v)
    v.update((k, x) for k, x in spans.items() if k in v)
    v["core.rebuild.rebuilt_ratio"] = ratio(v["core.rebuild.trees_rebuilt"], v["core.rebuild.trees_seen"])
    v["core.sat.decided_ratio"] = ratio(v["core.sat.decided"], v["core.sat.queries"])
    v["sweep.fraig.proved_ratio"] = ratio(
        v["sweep.fraig.proved"],
        v["sweep.fraig.proved"] + v["sweep.fraig.disproved"] + v["sweep.fraig.unknown"])
    v["rewrite.commit_ratio"] = ratio(v["rewrite.rewrites"], v["rewrite.roots_evaluated"])
    v["service.result_hit_rate"] = ratio(
        v["service.result_hits"], v["service.result_hits"] + v["service.result_misses"])
    v["service.memo_hit_rate"] = ratio(
        v["service.memo_hits"], v["service.memo_hits"] + v["service.memo_misses"])
    layers = sum(x for k, x in spans.items() if not k.startswith("flowbench."))
    v["trace.coverage"] = ratio(layers, spans["flowbench.root"])
    v["trace.overhead"] = ratio(spans["flowbench.flow"], flow_median) - 1.0
    return {name: {"value": v[name], "unit": unit} for name, unit in spec["per_layer"].items()}


# ----------------------------------------------------------- provenance

def provenance(worker, args, cfg, results):
    info = worker("info")
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    # Identifies the code in checkouts that are not git repositories.
    src = hashlib.sha256()
    for base in ("src", "flowbench"):
        for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, base))):
            for fname in sorted(files):
                path = os.path.join(dirpath, fname)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    src.update(f.read())
    return {"provenance": dict(info, commit=commit, source_sha256=src.hexdigest(),
                               workload=args.workload, threads=cfg["threads"], seed=args.seed,
                               variant=args.variant, runs=len(results),
                               flow_s_runs=[r["flow_s"] for r in results])}


# ----------------------------------------------------------- invocation

def measure(worker, spec, args, work):
    workload = args.workload
    cfg = spec["workloads"][workload]
    service = workload == "service_burst"
    inputs = os.path.join(work, "in")
    worker("gen", workload=workload, seed=args.seed, variant=args.variant, out=inputs)
    names = read_names(inputs)

    snapshot = None
    if service:  # priming: once per invocation, untimed
        worker("prime", spool=os.path.join(work, "prime"), threads=cfg["threads"], **{"in": inputs})
        snapshot = os.path.join(work, "primed.snap")
        shutil.copyfile(os.path.join(work, "prime", "cache", "warm_cache.snap"), snapshot)

    def one_run(tag, trace_path=None):
        """Returns (result, digests, failed designs, output dir)."""
        out = os.path.join(work, tag)
        if service:
            return service_run(worker, cfg, inputs, snapshot, out, trace_path) + (os.path.join(out, "done"),)
        # CEC runs after the measured calls, on the first and the traced run
        # only: the other runs' outputs must equal the first's (digests).
        cec = cfg["cec"] and (trace_path is not None or tag == "run0")
        return flow_run(worker, cfg, inputs, out, trace_path, cec) + (out,)

    results, runs = [], []
    start = time.monotonic()

    def budget_left():
        """Start another run if it is expected to end by --seconds, give or take half a run."""
        elapsed = time.monotonic() - start
        return elapsed + elapsed / len(results) / 2 < args.seconds

    while len(results) < MIN_RUNS or budget_left():
        res, digests, failed, out = one_run(f"run{len(results)}")
        results.append(res)
        runs.append((failed, digests))
        if len(results) == 1:
            first_out = out
        else:  # later runs are compared by digest only
            shutil.rmtree(os.path.join(work, f"run{len(results) - 1}"))

    check = worker("check", gold=inputs, gate=first_out, sequences=cfg["check_sequences"],
                   seed=args.seed, threads=cfg["threads"])

    flow_median = statistics.median(r["flow_s"] for r in results)
    if args.trace:
        trace_dir = os.path.join(build_root(), "flowbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, workload + ".json")
        traced, digests, failed, _ = one_run("traced", trace_path)
        runs.append((failed, digests))  # the traced output must match the timed runs'
        metrics = per_layer_metrics(spec, traced, span_times(trace_path), flow_median)
    else:
        def med(key):
            return statistics.median(r[key] for r in results)

        values = {
            "setup_s": med("setup_s"),
            "flow_s": flow_median,
            "jobs_per_s": statistics.median(r["designs"] / r["flow_s"] for r in results),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            # outputs are equal across runs (digests), so one run's area stands for all
            "aig_area": check["aig_area"] if service else results[0]["area_out"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spec["end_to_end"].items()}

    bad_outputs = set(check["failed"])
    if not service:
        bad_outputs |= runs[0][0]  # a CEC verdict holds for every run with the same output
    attempted, failed = count_failures(names, runs, runs[0][1], bad_outputs)
    prov = provenance(worker, args, cfg, results)
    return prov, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test(worker, spec, work):
    """A netlist with one mux's A/B inputs swapped must count as failed."""
    cfg = spec["workloads"]["public_check"]
    inputs = os.path.join(work, "in")
    worker("gen", workload="public_check", seed=0, out=inputs)
    names = read_names(inputs)
    _, digests, failed = flow_run(worker, cfg, inputs, os.path.join(work, "out"), cec=True)

    def failures(gate):
        sim_failed = worker("check", gold=inputs, gate=gate, sequences=cfg["check_sequences"],
                            seed=0, threads=cfg["threads"])["failed"]
        return count_failures(names, [(failed, digests)], digests, set(sim_failed))

    clean = failures(os.path.join(work, "out"))
    bad_dir = os.path.join(work, "bad")
    shutil.copytree(os.path.join(work, "out"), bad_dir)
    victim = names[0]
    swapped = worker("corrupt", out=os.path.join(bad_dir, victim + ".v"),
                     **{"in": os.path.join(work, "out", victim + ".v")})
    bad = failures(bad_dir)
    ok = clean == (len(names), 0) and swapped["swapped"] == 1 and bad == (len(names), 1)
    print(f"self-test: clean outputs {clean[1]}/{clean[0]} failed, "
          f"one swapped mux in {victim}: {bad[1]}/{bad[0]} failed -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--variant", type=int, default=0,
                    help="shift every generator seed (workloads.json); 0 = the defaults")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if not args.self_test and args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(spec['workloads'])}")
        worker = Worker(build())
        tag = "selftest" if args.self_test else args.workload
        work = os.path.join(build_root(), "flowbench-work", f"{tag}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        try:
            if args.self_test:
                return self_test(worker, spec, work)
            prov, result = measure(worker, spec, args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"flowbench: {e}\n")
        return 1
    print(json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
