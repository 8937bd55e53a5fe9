"""arcjet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Workloads and their operations, with the sha256 of each operation's output
at the commit that defined the benchmark, are in ``workloads.json``.  The
seed only shuffles the order of a workload's fixed set of operations.

A closed loop with one client: one operation in flight at a time.  Each
*pass* runs every operation of the workload once, in a fresh process (see
worker.py), so no process-wide cache carries over from one pass to the
next, as in one ``arcjet verify --all``.  The run repeats passes while the
next one is expected to end within ``--seconds`` (at least one pass).  The
environment is pinned: ARCJET_WORKERS unset (the documented single-process
default) and PYTHONHASHSEED=0.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s        median normalized time to import arcjet and build the
                   workload's preset objects, over several fresh processes
    wall_norm_s    median over passes of the pass wall time (set-up
                   excluded), normalized to a reference host speed
    op_p50_norm_s  median over operations of each operation's median
                   normalized wall time
    peak_rss_mb    median over passes of the pass process's peak resident
                   memory

Normalized times (worker.py) scale the wall time of a set-up or an
operation by how fast the host ran a fixed calibration loop around it,
which removes much of the drift that a shared host adds.  The report lines
before the result also give the raw ``setup_raw_s``, ``wall_s`` and
``op_p50_s``, ``op_tail_s`` (the highest
percentile with at least ten operations beyond it, with its sample count;
omitted below eleven operations) and ``failed_frac``.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics of the traced pass (tracer.py), plus
``cli.tracing_overhead_s``, traced minus untraced normalized pass time.
The report line adds the self times of the spans that not every workload
enters (``other_self_s``); the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
if it raises, exits nonzero or prints output whose sha256 differs from the
recorded one (which also catches a report with ``ok: false``); failures
are counted, never fatal.
The run exits 1 without a result if the program cannot be imported from the
checkout or a pass process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5  # set-up-only processes, on top of one per pass
RUN_LIMIT_S = 170  # every child is killed past this point of the run

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "op_p50_norm_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(load_workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root: Path, spec: str, workload: str, started: float) -> None:
        self.root = root
        self.spec = spec
        self.workload = workload
        self.started = started
        self.env = dict(os.environ)
        self.env.pop("ARCJET_WORKERS", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, *args: str) -> dict:
        left = RUN_LIMIT_S - (perf_counter() - self.started)
        if left <= 0:
            raise BenchError("run time limit reached")
        cmd = [sys.executable, str(WORKER), self.spec, self.workload, *args]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the run time limit: {' '.join(args[:1])}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"worker exited with code {proc.returncode}:\n{tail}")
        result = json.loads(lines[-1])
        src = (self.root / "src").resolve()
        if src not in Path(result["arcjet_file"]).resolve().parents:
            raise BenchError(f"arcjet was imported from {result['arcjet_file']}, not {src}")
        return result

    def setup_only(self) -> dict:
        return self.child("0", "--setup-only")

    def one_pass(self, order: list[int], trace_file: str | None = None) -> dict:
        args = [",".join(map(str, order))]
        if trace_file:
            args += ["--trace", trace_file]
        t0 = perf_counter()
        result = self.child(*args)
        result["process_s"] = perf_counter() - t0
        return result


def tail_latency(samples: list[float]):
    """The value at the highest percentile that has at least ten samples
    beyond it, with that percentile and the sample count."""
    if len(samples) < 11:
        return f"omitted: {len(samples)} operations, fewer than 11"
    xs = sorted(samples)
    k = len(xs) - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs), "samples": len(xs)}


def measure(args: argparse.Namespace, root: Path) -> tuple[dict, dict]:
    started = perf_counter()
    ops = load_workloads()[args.workload]["ops"]
    runner = Runner(root, "workloads.json", args.workload, started)
    rng = random.Random(args.seed)

    def order() -> list[int]:
        idx = list(range(len(ops)))
        rng.shuffle(idx)
        return idx

    runner.setup_only()  # warm-up: byte-compiles the sources, not counted
    passes = []
    traced = None
    if args.trace:
        passes.append(runner.one_pass(order()))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced = runner.one_pass(order(), str(spans))
        traced["spans_file"] = str(spans.relative_to(root))
    else:
        # whole passes while the next one is expected to end within --seconds
        t0 = perf_counter()
        while True:
            passes.append(runner.one_pass(order()))
            longest = max(p["process_s"] for p in passes)
            if perf_counter() - t0 + longest > args.seconds:
                break
    setups = passes + [runner.setup_only() for _ in range(SETUP_SAMPLES)]

    op_results = [o for p in passes + ([traced] if traced else []) for o in p["ops"]]
    failures = [(ops[o["index"]]["id"], o["error"]) for o in op_results if not o["ok"]]
    op_times = [o["seconds"] for p in passes for o in p["ops"]]
    # each operation's median over the passes, so that the median over
    # operations does not hinge on one pass's extremes
    per_op: dict[int, list[float]] = {}
    for p in passes:
        for o in p["ops"]:
            per_op.setdefault(o["index"], []).append(o["norm_s"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "environment": "ARCJET_WORKERS unset, PYTHONHASHSEED=0, one client, fresh process per pass",
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "setup_samples": len(setups),
        "attempted": len(op_results),
        "failed": len(failures),
        "failures": failures,
        "failed_frac": len(failures) / len(op_results),
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail_latency(op_times),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_norm_s": [p["norm_wall_s"] for p in passes],
        "run_s": perf_counter() - started,
    }
    if args.trace:
        layers = dict(traced["layers"])
        layers["cli.tracing_overhead_s"] = traced["norm_wall_s"] - passes[0]["norm_wall_s"]
        summary["traced_wall_s"] = traced["wall_s"]
        summary["spans_file"] = traced["spans_file"]
        reported = {name for name, _ in LAYER_METRICS}
        summary["other_self_s"] = {
            k: v for k, v in layers.items() if k.endswith(".self_s") and k not in reported
        }
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(s["norm_setup_s"] for s in setups),
            "wall_norm_s": statistics.median(p["norm_wall_s"] for p in passes),
            "op_p50_norm_s": statistics.median(statistics.median(v) for v in per_op.values()),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return summary, metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "arcjet" / "__init__.py").is_file():
        print(f"error: no arcjet sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 1
    try:
        summary, metrics = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("run " + json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
