"""One benchmark pass in a fresh process.

Usage (started by run.py with the checkout's ``src`` on PYTHONPATH):

    python3 perfbench/worker.py SPEC NAME ORDER [--trace SPANS_FILE] [--setup-only]

SPEC is a JSON file in this directory mapping workload names to their
operations (``workloads.json``, or ``selftest.json`` for the self-test);
ORDER is a comma-separated permutation of workload NAME's operation indices.
The worker imports arcjet, builds the workload's preset objects (set-up),
then runs each operation through ``arcjet.cli.main`` with one operation in
flight, hashing the captured output.  It prints one JSON object: set-up
time, pass wall time (the sum of the operations' wall times), both also
normalized to a reference host speed (see ``calibrate``), peak resident
memory and per-operation results; with ``--trace`` also the per-layer
statistics of the pass, whose spans it writes to SPANS_FILE.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# Host speed on a shared machine drifts by tens of percent over seconds to
# minutes.  A fixed pure-Python loop is timed before the set-up and after it
# and each operation; the *normalized* time of the set-up or an operation is
# its wall time scaled by REF_CALIBRATION_S over the mean of its two
# adjacent loop timings, i.e. its wall time on a host that runs the loop in
# REF_CALIBRATION_S.
CALIBRATION_LOOPS = 300_000
REF_CALIBRATION_S = 0.025


def calibrate() -> float:
    """Median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def load_spec(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def run_op(main, op: dict) -> dict:
    """Run one operation; an exception, a nonzero exit or an output hash
    that differs from the golden one counts as a failure.  Every golden
    output passed its checks, so a report with ``ok: false`` also fails
    the hash check."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op["argv"])
    except (Exception, SystemExit) as exc:  # argparse exits on bad arguments
        seconds = perf_counter() - t0
        return {"seconds": seconds, "ok": False, "error": "".join(
            traceback.format_exception_only(type(exc), exc)).strip()}
    seconds = perf_counter() - t0
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    error = None
    if code != 0:
        error = f"exit code {code}"
    elif digest != op["sha256"]:
        error = f"output sha256 {digest} differs from golden {op['sha256']}"
    return {"seconds": seconds, "ok": error is None, "sha256": digest, "error": error}


def main(argv: list[str]) -> int:
    spec, workload, order = argv[:3]
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    ops = load_spec(spec)[workload]["ops"]

    before = calibrate()
    t0 = perf_counter()
    import arcjet.cli
    from arcjet.catalog import preset

    for op in ops:
        if op["preset"]:
            preset(*op["preset"])
    setup_s = perf_counter() - t0
    after = calibrate()
    result: dict = {
        "setup_s": setup_s,
        "norm_setup_s": setup_s * REF_CALIBRATION_S / ((before + after) / 2),
        "arcjet_file": arcjet.cli.__file__,
    }
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = arcjet.cli.main  # looked up after install: the root span
    indices = [int(i) for i in order.split(",")]
    results = []
    before = after
    for k, i in enumerate(indices):
        if tracer is not None:
            tracer.op = k
        r = run_op(cli_main, ops[i])
        after = calibrate()
        r["norm_s"] = r["seconds"] * REF_CALIBRATION_S / ((before + after) / 2)
        results.append({"index": i, **r})
        before = after
    result["wall_s"] = sum(r["seconds"] for r in results)
    result["norm_wall_s"] = sum(r["norm_s"] for r in results)
    result["ops"] = results
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        tracer.write_spans(trace_path, [ops[i]["id"] for i in indices])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
