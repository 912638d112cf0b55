"""The benchmark's own test.

Usage (from the repository root):

    python3 pawnbench/selftest.py [WORKLOAD ...]

1. The checker accepts the reference value of a drawn board and rejects
   the same output with the value changed, so a wrong count cannot pass.
2. For each workload (all by default), two traced runs with the same seed
   report identical exact work counts (``layers.EXACT``): the counts come
   from call arguments and return values, never from timing.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def checker_rejects_wrong_counts() -> list[str]:
    refs = check.load_refs()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        calls = workloads.generate("tall-M", SEED, Path(tmp))
    rng = random.Random(SEED)
    for call in calls:
        e = call.expect
        if e["kind"] != "count":
            continue
        value = int(check.reference(refs, e["table"], e["m"], e["n"]))
        wrong = value + rng.choice((-1, 1)) * rng.randrange(1, 10)
        for shown, want_ok in ((value, True), (wrong, False)):
            call_json = dict(e, json=False)
            out = f"{e['label']}({e['m']},{e['n']}) = {shown}\n"
            reason = check.check(workloads.Call(call.argv, call_json), 0,
                                 out, "", refs)
            if (reason is None) != want_ok:
                problems.append(f"{call.argv}: value {shown} gave {reason!r}")
    return problems


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run was not correct")
    return {name: result["metrics"][name]["value"] for name in layers.EXACT}


def main(argv: list[str]) -> int:
    problems = checker_rejects_wrong_counts()
    for workload in argv or sorted(workloads.WORKLOADS):
        first, second = traced_counts(workload), traced_counts(workload)
        problems += [f"{workload}: {name} {first[name]} then {second[name]}"
                     for name in layers.EXACT if first[name] != second[name]]
        print(f"{workload}: exact counts {first}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
