"""pawncount benchmark: cold CLI calls in a closed loop, checked against
committed references.

Usage (from the repository root):

    python3 pawnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues the workload's calls one after another, each a fresh
``python -m pawncount ...`` process, so imports and caches are cold as a
user sees them.  A pass is the workload's whole call sequence; passes
repeat until S seconds have gone by (the pass under way is finished).
Every output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat each metric with its unit and sample count, the failure share and
the machine the run was made on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which each call runs through
``trace_child.py`` instead, and reports the per-layer metrics of
``layers.py`` together with the tracing overhead.

The benchmark needs the package sources at ``src/pawncount`` under the
current directory and exits with status 2 if they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated and its median reported, so one slow repeat (the first
# one in a fresh checkout compiles the package's bytecode) does not decide it.
SETUP_REPEATS = 5
# Every run must end within 180 s; no call may start a wait beyond this.
RUN_BUDGET_S = 170.0
WORK_ROOT = Path(".pawnbench-work")


class Runner:
    def __init__(self, root: Path, work: Path, refs: dict, started: float):
        self.started = started
        self.root = root
        self.work = work
        self.refs = refs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # One BLAS thread per child: the default pool burns a second core on
        # small matrices and widens the run-to-run spread.
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["OMP_NUM_THREADS"] = "1"

    def call(self, call: workloads.Call, traced: bool) -> dict:
        """Run one call to completion and check its output."""
        if traced:
            spans_path = self.work / "spans.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, "-X", "importtime",
                   str(HERE / "trace_child.py"), str(spans_path), "--",
                   *call.argv]
        else:
            cmd = [sys.executable, "-m", "pawncount", *call.argv]
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                              capture_output=True, timeout=max(remaining, 1.0))
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        err = proc.stderr
        result = {"wall": wall,
                  "cpu": (after.ru_utime + after.ru_stime
                          - before.ru_utime - before.ru_stime)}
        if traced:
            imports, err = layers.split_importtime(err)
            # A child that dies before main returns leaves no spans.
            spans = (json.loads(spans_path.read_text())
                     if spans_path.exists() else [])
            result["layers"] = layers.call_metrics(spans, imports)
        result["reason"] = check.check(call, proc.returncode, proc.stdout, err,
                                       self.refs)
        return result

    def run_pass(self, calls, traced: bool) -> dict:
        return {"traced": traced,
                "results": [self.call(c, traced) for c in calls]}


def set_up(workload: str, seed: int, root: Path, work: Path, started: float):
    """Inputs, references, input files and one untimed warm-up call."""
    start = time.perf_counter()
    calls = workloads.generate(workload, seed, work)
    runner = Runner(root, work, check.load_refs(), started)
    warm = runner.call(workloads.warmup_call(), traced=False)
    return time.perf_counter() - start, calls, runner, warm["reason"]


def machine() -> dict:
    record = {"nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "numpy": metadata.version("numpy")}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Data", "Unified"):
            record[f"L{level}"] = size
    return record


def sequence(passes, key: str) -> float:
    """Time of the whole call sequence, each call taken at its median over
    the passes.  Noise on this shared machine hits single calls (a pure
    CPU loop varies by +-20%), so per-call medians settle faster than the
    median of pass totals."""
    return sum(statistics.median(p["results"][i][key] for p in passes)
               for i in range(len(passes[0]["results"])))


def end_to_end(setups, passes) -> dict:
    walls = [r["wall"] for p in passes for r in p["results"]]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    per_pass = f"sum over the sequence of per-call medians of {len(passes)} passes"
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "wall_s": (sequence(passes, "wall"), "s", per_pass),
        "call_p50_s": (statistics.median(walls), "s",
                       f"median of {len(walls)} calls"),
        "cpu_s": (sequence(passes, "cpu"), "s",
                  f"children's user+sys, {per_pass}"),
        "peak_rss_mb": (rss_mb, "MB", "largest child max RSS"),
    }


def per_layer(passes) -> dict:
    traced = [layers.pass_metrics([r["layers"] for r in p["results"]])
              for p in passes if p["traced"]]
    overhead = (sequence([p for p in passes if p["traced"]], "wall")
                / sequence([p for p in passes if not p["traced"]], "wall") - 1)
    out = {}
    for name, (unit, _) in layers.METRICS.items():
        if name == "trace.overhead_frac":
            value, note = overhead, "traced vs untraced wall_s"
        elif name in layers.EXACT:
            value, note = traced[0][name], "per pass, exact"
            if any(t[name] != value for t in traced):
                raise RuntimeError(f"{name} differs between traced passes")
        else:
            value = statistics.median(t[name] for t in traced)
            note = f"per pass, median of {len(traced)} traced passes"
        out[name] = (value, unit, note)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "pawncount" / "__main__.py").is_file():
        print(f"error: no package sources at {root / 'src' / 'pawncount'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, warm_reasons = [], []
        for _ in range(SETUP_REPEATS):
            elapsed, calls, runner, reason = set_up(args.workload, args.seed,
                                                    root, work, started)
            setups.append(elapsed)
            warm_reasons.append(reason)
        deadline = time.perf_counter() + args.seconds
        passes = []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(runner.run_pass(calls, traced))
            enough = not args.trace or any(p["traced"] for p in passes)
            if time.perf_counter() >= deadline and enough:
                break
    except subprocess.TimeoutExpired as exc:
        print(f"error: call did not finish within the run budget: {exc.cmd}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    results = [r for p in passes for r in p["results"]]
    failures = [(c, r["reason"]) for p in passes
                for c, r in zip(calls, p["results"]) if r["reason"]]
    reasons = [reason for _, reason in failures]
    unexpected = [reason for c, reason in failures
                  if not check.is_known_defect(c, reason)]
    correct = not unexpected and not any(warm_reasons)
    metrics = per_layer(passes) if args.trace else end_to_end(setups, passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(calls)} calls")
    for traced in sorted({p["traced"] for p in passes}):
        walls = ", ".join(f"{sum(r['wall'] for r in p['results']):.3f}"
                          for p in passes if p["traced"] == traced)
        print(f"{'traced' if traced else 'untraced'} pass walls: {walls} s")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(f"failed_frac {len(reasons) / len(results):.6g} "
          f"({len(reasons)} of {len(results)} calls)")
    for reason, count in sorted(Counter(reasons).items()):
        print(f"failure x{count}: {reason}")
    for reason in warm_reasons:
        if reason:
            print(f"warm-up failure: {reason}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
