#!/usr/bin/env python3
"""Time-to-solution benchmark of the ttsvd sweep solvers.

Run from the repository root:

    python3 perfbench/run.py --workload prescribed-svd --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

A run imports ttsvd from this checkout's ``src/``, sets up (import, pass-0
matrices, one untimed warm-up solve), then solves a fixed number of passes of
the workload's problem list, sized to take ``--seconds`` (see workloads.py).
Every solve goes through the correctness gate.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs each of half as many passes twice,
plain and with every layer wrapped (tracing.py), and prints the per-layer
metrics.  The last line of standard output is the JSON result; the full
record, the environment and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("prescribed-svd", "hilbert-krylov", "gram-baseline")
# One BLAS thread: the solvers are measured single-threaded, which also
# stays within nproc on any machine.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def import_ttsvd():
    """Import ttsvd from this checkout's src/, never from an installed copy."""
    if not (SRC / "ttsvd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ttsvd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ttsvd
    if Path(ttsvd.__file__).resolve().parent != (SRC / "ttsvd").resolve():
        raise SystemExit(f"perfbench: imported ttsvd from {ttsvd.__file__}, "
                         f"not from {SRC}")
    return ttsvd


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
    }


def tail(times):
    """(value, percentile, n): highest percentile with >= 10 samples beyond.

    Nearest-rank percentile.  With ten samples or fewer no percentile has ten
    beyond it, and the maximum is reported as p100.
    """
    xs = sorted(times)
    n = len(xs)
    pct = 100 * (n - TAIL_BEYOND) // n if n > TAIL_BEYOND else 0
    if pct <= 0:
        return xs[-1], 100, n
    return xs[math.ceil(pct * n / 100) - 1], pct, n


class Runner:
    """Inputs, solves and records of one workload run."""

    def __init__(self, wl, workload, seed: int):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.matrices = {}
        self.build_s = 0.0

    def inputs(self, j: int):
        """[(problem, matrix, truth, seed)] of pass j; builds what is missing."""
        ps = self.wl.pass_seed(self.seed, j)
        keep, items = {}, []
        for p in self.workload.problems:
            key = p.matrix_key(ps)
            if key not in self.matrices:
                t0 = time.perf_counter()
                self.matrices[key] = self.wl.build_matrix(p, p.seed(ps))
                self.build_s += time.perf_counter() - t0
            keep[key] = self.matrices[key]
            items.append((p, *keep[key], p.seed(ps)))
        self.matrices = keep
        return items

    def solve(self, j, problem, a, truth, ps, tracer=None):
        """Time one solve, then gate it; returns its record."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.solve(problem, a, ps)
            else:
                out = tracer.call("solver.solve", self.wl.solve, problem, a, ps)
        except Exception as exc:  # a failed solve is counted, not fatal
            dt = time.perf_counter() - t0
            return {"pass": j, "problem": problem.label, "seed": ps,
                    "seconds": dt, "failure": f"exception {exc!r}",
                    "digest": self.wl.digest(error=exc), "report": None}
        dt = time.perf_counter() - t0
        return {"pass": j, "problem": problem.label, "seed": ps,
                "seconds": dt, "failure": self.wl.gate(problem, a, truth, out),
                "digest": self.wl.digest(out), "report": out[3]}

    def one_pass(self, j, tracer=None):
        items = self.inputs(j)
        gc.collect()
        records = []
        for p, a, truth, ps in items:
            if tracer is not None:
                tracer.op = f"{j}/{p.label}"
            records.append(self.solve(j, p, a, truth, ps, tracer))
        return records

    def pass_count(self, seconds: float) -> int:
        """Passes that take ``seconds`` at the workload's nominal pass time."""
        return max(2, math.ceil(seconds / self.workload.pass_wall_s))

    def paired_passes(self, tracer, module, count: int):
        """Passes 0..count-1, each untraced and traced, alternating which
        goes first so that warm-up and drift fall on both sides."""
        untraced, traced = [], []
        for j in range(count):
            for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced.append(self.one_pass(j))
                    continue
                tracer.install(module)
                try:
                    traced.append(self.one_pass(j, tracer))
                finally:
                    tracer.uninstall()
        return untraced, traced


def set_up(wl, name: str, seed: int, tiny: bool, import_s: float):
    """Build pass-0 matrices and run one untimed warm-up solve.

    The build and the warm-up are repeated SETUP_REPEATS times from scratch;
    the reported times are medians, with the one import added to set-up.
    """
    workload = (wl.TINY if tiny else wl.WORKLOADS)[name]
    builds, warmups = [], []
    for _ in range(SETUP_REPEATS):
        runner = Runner(wl, workload, seed)
        p, a, truth, ps = runner.inputs(0)[0]
        warm = runner.solve(0, p, a, truth, ps)
        builds.append(runner.build_s)
        warmups.append(warm["seconds"])
    setup_s = statistics.median(import_s + b + w
                                for b, w in zip(builds, warmups))
    timings = {"import_s": import_s, "build_s": statistics.median(builds),
               "warmup_s": statistics.median(warmups), "setup_s": setup_s}
    return runner, timings, warm


def code_key() -> str:
    """Hash of the code under test: the ttsvd sources and the workloads."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ttsvd").glob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(variant: str, seed: int, records, mismatches: list) -> None:
    """Compare with digests stored by earlier runs of the same seed and code.

    A change to the solvers may legitimately change sigma bytes, sweeps or
    iterations, so runs of other code are never compared.
    """
    path = OUT / "digests" / f"{variant}-seed{seed}-code{code_key()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for r in records:
        key = f"{r['pass']}/{r['problem']}"
        if key in stored and stored[key] != r["digest"]:
            mismatches.append(f"{key}: {r['digest']} differs from an earlier "
                              f"run's {stored[key]}")
        stored[key] = r["digest"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=0, sort_keys=True))


def e2e_metrics(pass_records, setup_s: float):
    solves = [r for rs in pass_records for r in rs]
    times = [r["seconds"] for r in solves]
    failed = sum(r["failure"] is not None for r in solves)
    tail_s, pct, n = tail(times)
    metrics = {
        "pass_s": (statistics.median(sum(r["seconds"] for r in rs)
                                     for rs in pass_records), "s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "solved_frac": (1.0 - failed / len(solves), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"solve_s_tail": f"p{pct} of {n} solves", "passes": len(pass_records),
            "failed_frac": failed / len(solves)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def run(args) -> int:
    os.environ.update(PINNED_ENV)
    t0 = time.perf_counter()
    ttsvd = import_ttsvd()
    import workloads as wl
    import tracing
    import_s = time.perf_counter() - t0

    runner, setup, warm = set_up(wl, args.workload, args.seed, args.tiny,
                                 import_s)
    variant = args.workload + ("-tiny" if args.tiny else "")
    mismatches = []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        try:
            untraced, traced = runner.paired_passes(
                tracer, ttsvd.solver, runner.pass_count(args.seconds / 2))
            metrics = tracing.layer_metrics(
                tracer, [r["report"] for rs in traced for r in rs if r["report"]],
                len(traced), runner.workload.required_layers, setup,
                sum(r["seconds"] for rs in untraced for r in rs),
                wl.krylov_iterations)
        except tracing.GuardError as exc:
            print(f"perfbench: trace guard: {exc}", file=sys.stderr)
            return 3
        for ru, rt in zip((r for rs in untraced for r in rs),
                          (r for rs in traced for r in rs)):
            if ru["digest"] != rt["digest"]:
                mismatches.append(f"{ru['pass']}/{ru['problem']}: traced "
                                  f"{rt['digest']} != untraced {ru['digest']}")
        pass_records = untraced + traced
        info = {"passes": len(traced)}
    else:
        pass_records = [runner.one_pass(j)
                        for j in range(runner.pass_count(args.seconds))]
        metrics, info = e2e_metrics(pass_records, setup["setup_s"])

    solves = [r for rs in pass_records for r in rs]
    first = pass_records[0][0]
    if warm["digest"] != first["digest"]:
        mismatches.append(f"0/{first['problem']}: warm-up {warm['digest']} "
                          f"!= pass 0 {first['digest']}")
    check_digests(variant, args.seed, solves, mismatches)
    failed = [r for r in solves if r["failure"] is not None]

    env = environment()
    print("env " + json.dumps(env))
    print(f"{variant} seed {args.seed}: {len(solves)} solves in "
          f"{len(pass_records)} passes, {len(failed)} failed the gate; "
          + json.dumps(info))
    for r in failed:
        print(f"FAILED {r['pass']}/{r['problem']} seed {r['seed']}: "
              f"{r['failure']}")
    for m in mismatches:
        print(f"DETERMINISM MISMATCH {m}")
    if tracer is not None:
        by_problem = tracer.totals(by_op=lambda op: op.split("/", 1)[1])
        for label in sorted({key[0] for key in by_problem}):
            tot = {k[1]: v for k, v in by_problem.items() if k[0] == label}
            solve_s = tot["solver.solve"]["incl_s"]
            shares = {k: round(v["self_s"] / solve_s, 3) for k, v in tot.items()}
            print(f"{label}: {solve_s:.3f} s traced; self-time shares "
                  + json.dumps(shares))

    OUT.mkdir(exist_ok=True)
    stem = f"{variant}-seed{args.seed}-trace{int(args.trace)}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl.gz")
    result = {"correct": not mismatches, "attempted": len(solves),
              "failed": len(failed), "metrics": metrics}
    record = dict(result, environment=env, info=info, setup=setup,
                  mismatches=mismatches,
                  solves=[{k: v for k, v in r.items() if k != "report"}
                          for r in solves])
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Tiny end-to-end runs; names and units must match BENCHMARK.json."""
    os.environ.update(PINNED_ENV)
    import_ttsvd()
    import workloads as wl
    import tracing
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    problems = []
    if tuple(w["name"] for w in bench["workloads"]) != WORKLOAD_NAMES:
        problems.append("BENCHMARK.json workloads differ from run.py")
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layers != dict(tracing.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: layers}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, timeout=170,
                cwd=REPO)
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{tag}: metrics {units} != {expected[trace]}")
            if result["correct"] is not True:
                problems.append(f"{tag}: correct is {result['correct']}")
            print(f"ok {tag}: {result['attempted']} solves, "
                  f"{result['failed']} failed the gate")
    # The gate must catch a known silent failure: this solve reports
    # "converged" with a spectrum error of order 1e-3.
    known = wl.Problem("prescribed", 40, "als_svd", 1e-8, max_full_sweeps=5)
    a, truth = wl.build_matrix(known, 4)
    out = wl.solve(known, a, 4)
    reason = wl.gate(known, a, truth, out)
    if out[3].termination != "converged" or reason is None:
        problems.append(f"gate: prescribed N=40 seed 4 als_svd gave "
                        f"{out[3].termination!r}, gate {reason!r}")
    else:
        print(f"ok gate catches prescribed N=40 seed 4 als_svd: {reason}")
    for p in problems:
        print("SELF-CHECK FAILED " + p)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="N <= 8 variant of the workload")
    ap.add_argument("--self-check", action="store_true",
                    help="tiny runs of every workload; checks names and units")
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
