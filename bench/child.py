"""One fresh interpreter of the benchmark: set-up, then at most one round.

    python3 bench/child.py --workload W --seed N --mode setup|round
                           [--trace] [--check] [--spans FILE]

Set-up imports ``kinglpds`` from the checkout's ``src`` and builds the
workload's inputs, then prints ``READY`` with the import times.  In ``round``
mode the child then collects garbage and runs every operation of the
workload once through ``kinglpds.cli.main``, timing each.  The last line it
prints is a JSON object with the round's times, exit codes, peak resident
set, a digest of the outputs and, with ``--check``, the problems the checks
found.  ``run.py`` starts these children; it is the benchmark's entry point.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "round"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import networkx  # noqa: F401  (timed on its own: most of the import)
    t1 = perf_counter()
    import kinglpds.cli
    t2 = perf_counter()
    if not Path(kinglpds.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kinglpds was imported from {kinglpds.cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 3

    import speed
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        plan = workloads.build(args.workload, args.seed, kinglpds.cli.main, workdir)
        print("READY " + json.dumps({"import_s": t2 - t0, "networkx_import_s": t1 - t0}),
              flush=True)
        setup_burst_s = speed.setup_speed()
        if args.mode == "setup":
            print(json.dumps({"setup_burst_s": setup_burst_s}), flush=True)
            return 0
        return run_round(args, plan, setup_burst_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_round(args, plan, setup_burst_s: float) -> int:
    import kinglpds.cli
    import speed
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cli_main = kinglpds.cli.main

    probe = speed.SpeedProbe(sampling=tracer is None)
    results, spans = [], []
    gc.collect()
    with probe:
        for i, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op = i
            busy = probe.busy
            t = perf_counter()
            try:
                code, out = workloads.run_cli(cli_main, op.argv)
            except Exception as exc:  # an operation that raises counts as failed
                code, out = None, f"{type(exc).__name__}: {exc}"
            spans.append((t, perf_counter(), probe.busy - busy))
            results.append((code, out))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_s = [end - start - busy for start, end, busy in spans]
    op_s = [probe.calibrated(*span) for span in spans]

    digest = hashlib.sha256()
    for code, out in results:  # file arguments differ between children; outputs must not
        digest.update(f"{code}\0{workloads.normalize(out)}\0".encode())
    ok = [(op, code, out) for op, (code, out) in zip(plan.ops, results)
          if code in op.expect_rc]
    report = {
        "round_s": sum(op_s),
        "op_s": op_s,
        "round_raw_s": sum(raw_s),
        "op_raw_s": raw_s,
        "setup_burst_s": setup_burst_s,
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "failures": [" ".join(op.argv) for op, (code, _) in zip(plan.ops, results)
                     if code not in op.expect_rc][:5],
        "rss_mb": rss_mb,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    if args.check:
        report["problems"] = workloads.check(plan, ok, kinglpds.cli.main)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
