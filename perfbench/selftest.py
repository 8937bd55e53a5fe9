"""Self-test of the benchmark's tracing: exact traced counts.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each case in ``selftest.json`` is run
twice, traced, in fresh processes.  The test fails unless every operation
passes its golden-hash check, the pinned counts match, and the two runs
give identical counts and ratios.  The pins were measured at the commit
that defined the benchmark; a change that alters how often a layer is
called must update them and say why.  Takes several minutes: the
``verify-all`` case is one full ``arcjet verify --all``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from run import HERE, BenchError, Runner
from tracer import LAYER_METRICS

COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit != "s"]


def run_case(root: Path, name: str, n_ops: int) -> dict:
    runner = Runner(root, "selftest.json", name, perf_counter())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    return runner.one_pass(list(range(n_ops)), str(out_dir / f"selftest-{name}.jsonl"))


def main() -> int:
    root = Path.cwd()
    cases = json.loads((HERE / "selftest.json").read_text())
    problems = []
    for name, case in cases.items():
        try:
            first, second = (run_case(root, name, len(case["ops"])) for _ in range(2))
        except BenchError as exc:
            problems.append(f"{name}: {exc}")
            continue
        for result in (first, second):
            for op in result["ops"]:
                if not op["ok"]:
                    problems.append(f"{name}: {case['ops'][op['index']]['id']}: {op['error']}")
        for metric, want in case["pins"].items():
            got = first["layers"][metric]
            if got != want:
                problems.append(f"{name}: {metric} = {got}, pinned {want}")
        for metric in COUNT_METRICS:
            a, b = first["layers"].get(metric), second["layers"].get(metric)
            if a != b:
                problems.append(f"{name}: {metric} differs between runs: {a} vs {b}")
        pins = ", ".join(f"{m} = {first['layers'][m]}" for m in case["pins"])
        print(f"{name}: {pins}; traced wall {first['wall_s']:.1f} s, {second['wall_s']:.1f} s")
    for p in problems:
        print("FAIL " + p)
    print("PASS" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
