"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a fresh
single-threaded interpreter (``bench/child.py``); rounds are started one
after another until their timed phases add up to ``--seconds``.  Before the
rounds, one discarded warm-up start and a few set-up-only starts measure
``setup_s``.  The first round's outputs are checked; every later round must
produce the same outputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of traced rounds with ``--trace 1``.
The program is not modified; a traced round wraps its functions from outside.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REF_BURST_S  # noqa: E402
from tracer import COUNTS  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_ONLY_STARTS = 4  # after one discarded warm-up start
RUN_BUDGET_S = 170  # every child is stopped once the run has taken this long

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "search.dfs_s": "s", "search.nodes": "count", "search.nodes_per_s": "1/s",
    "search.leaves": "count", "search.leaf_s": "s", "search.leaf_valid_ratio": "ratio",
    "pattern.canonical_s": "s", "verify.calls": "count", "verify.domination_s": "s",
    "verify.locating_s": "s", "verify.matching_s": "s", "verify.classify_s": "s",
    "verify.domination_per_verify": "ratio", "verify.window_s": "s",
    "verify.window_cells_per_s": "1/s", "matching.calls": "count", "matching.s": "s",
    "discharge.pipeline1_s": "s", "discharge.pipeline2_s": "s", "lemmas.configs": "count",
    "lemmas.configs_per_s": "1/s", "lemmas.s": "s", "cli.self_s": "s",
    "setup.import_s": "s", "setup.networkx_import_s": "s", "trace.overhead_ratio": "ratio",
}


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def _left(self) -> float:
        return max(1.0, self.deadline - perf_counter())

    def start(self, mode: str, trace=False, check=False, spans=None):
        """Run one child.

        Returns the time from its start to READY at reference speed and raw,
        its import times and its final report.
        """
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        cmd += ["--trace"] * trace + ["--check"] * check
        if spans:
            cmd += ["--spans", str(spans)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            if not select.select([proc.stdout], [], [], self._left())[0]:
                raise subprocess.TimeoutExpired(cmd, RUN_BUDGET_S)
            first = proc.stdout.readline()
            ready_s = perf_counter() - t0
            rest, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child overran the run budget of {RUN_BUDGET_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not first.startswith("READY "):
            raise ChildFailed(f"{mode} child exited with {proc.returncode}")
        imports = json.loads(first[len("READY "):])
        report = json.loads(rest.strip().splitlines()[-1])
        return ready_s * REF_BURST_S / report["setup_burst_s"], ready_s, imports, report


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed)
    runner.start("setup")  # warm-up: file cache, bytecode
    setups, raw_setups, imports = [], [], []
    for _ in range(SETUP_ONLY_STARTS):
        ready_s, raw_s, imp, _ = runner.start("setup")
        setups.append(ready_s)
        raw_setups.append(raw_s)
        imports.append(imp)

    rounds, traced = [], []
    trace_dir = ROOT / ".bench_work" / "traces"
    timed = 0.0
    while timed < seconds or (trace and not traced):
        tracing = trace and bool(rounds)  # a traced run keeps one plain round as baseline
        spans = None
        if tracing:
            trace_dir.mkdir(parents=True, exist_ok=True)
            spans = trace_dir / f"{workload}-seed{seed}-round{len(rounds) + len(traced)}.jsonl"
        ready_s, raw_s, imp, report = runner.start("round", trace=tracing,
                                                   check=not rounds and not traced, spans=spans)
        setups.append(ready_s)
        raw_setups.append(raw_s)
        imports.append(imp)
        (traced if tracing else rounds).append(report)
        timed += report["round_raw_s"]

    everything = rounds + traced
    problems = everything[0].get("problems", [])
    if len({r["digest"] for r in everything}) != 1:
        problems.append("rounds produced different outputs")
    if trace and any({k: r["layers"][k] for k in COUNTS} != {k: traced[0]["layers"][k] for k in COUNTS}
                     for r in traced):
        problems.append("traced rounds disagree on the layer counts")
    for p in problems[:20]:
        print("problem:", p, file=sys.stderr)
    for r in everything:
        for f in r["failures"]:
            print("failed:", f, file=sys.stderr)

    if trace:
        metrics = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        metrics["setup.import_s"] = _median([i["import_s"] for i in imports])
        metrics["setup.networkx_import_s"] = _median([i["networkx_import_s"] for i in imports])
        metrics["trace.overhead_ratio"] = (_median([r["round_raw_s"] for r in traced])
                                           / rounds[0]["round_raw_s"])
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": _median([r["round_s"] for r in rounds]),
            "op_p50_s": _median([t for r in rounds for t in r["op_s"]]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["rss_mb"] for r in rounds]),
        }
        units = E2E_UNITS
        raw = (_median([r["round_raw_s"] for r in rounds]),
               _median([t for r in rounds for t in r["op_raw_s"]]), _median(raw_setups))
        print("uncalibrated wall_s=%.4f op_p50_s=%.4f setup_s=%.4f" % raw, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="kinglpds benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kinglpds" / "__init__.py").is_file():
        print(f"no kinglpds sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
