"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Iterations of the workload run one after another (a closed loop with one
client), each in a fresh worker process, until the next one would end
after ``--seconds``; at least one always runs.  ``--trace 1`` runs pairs of
an untraced and a traced iteration instead: the per-layer metrics come from
the traced ones, and ``trace.overhead_s`` is the difference of the two
median wall times.  Metrics are medians over the iterations.

Output: one line per metric, "name value unit", then as the last line one
JSON object with the keys correct, attempted, failed and metrics, where
metrics holds the end_to_end (``--trace 0``) or per_layer (``--trace 1``)
metrics named in BENCHMARK.json.  The full result, with its environment
stamp, every iteration, the negative controls and, when traced, the spans,
is written to benchmark/out/.  Exits 1 after the JSON line if a verdict
differs from its known answer; exits 1 if a worker fails and 2 if the pgaw
sources are missing, in both cases without the JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170  # a run must end within 180 s


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def stamp(args) -> dict:
    """Where the numbers come from; numbers from different stamps are not compared."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "pgaw")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def iterate(workload: str, seed: int, detailed: bool, run_id: str, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), "1" if detailed else "0", run_id],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[list, list]:
    """(untraced, traced) iteration results of one run."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    runs: dict[bool, list] = {False: [], True: []}
    steps = []
    while True:
        t = time.monotonic()
        for detailed in ((False, True) if args.trace else (False,)):
            run_id = f"{args.workload}/{args.seed}/{len(runs[detailed])}{'t' if detailed else ''}"
            runs[detailed].append(iterate(args.workload, args.seed, detailed, run_id, deadline))
        steps.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(steps) > args.seconds or \
                elapsed + max(steps) > DEADLINE_S:
            return runs[False], runs[True]


def middle(values: list):
    """Median; the lower median for counts, so that they stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summarize(untraced: list, traced: list) -> dict:
    """Median of every metric; per-layer ones from the traced iterations if any."""
    source = traced or untraced
    metrics = {k: middle([it["metrics"][k] for it in source]) for k in source[0]["metrics"]}
    every = untraced + traced
    attempted = sum(it["attempted"] for it in every)
    failed = sum(it["failed"] for it in every)
    metrics["failed_ratio"] = failed / attempted
    if traced:
        metrics["trace.overhead_s"] = \
            statistics.median(it["metrics"]["wall_s"] for it in traced) - \
            statistics.median(it["metrics"]["wall_s"] for it in untraced)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def report(bench: dict, summary: dict, trace: bool) -> tuple[list[str], dict]:
    """Printed lines and the result object for the metrics named in ``bench``."""
    lines = [f"{k} {v!r} {unit_of(k)}" for k, v in sorted(summary["metrics"].items())]
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in summary["metrics"]:
            raise KeyError(f"metric {m['name']} was not measured")
        if m["unit"] != unit_of(m["name"]):
            raise ValueError(f"metric {m['name']} is measured in {unit_of(m['name'])}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
    return lines, {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                   "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pgaw", "__init__.py")):
        print(f"error: no pgaw sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = stamp(args)
    try:
        untraced, traced = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(untraced, traced)
    lines, result = report(bench, summary, bool(args.trace))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"stamp": env, "result": result, "metrics": summary["metrics"],
                   "iterations": [{k: it[k] for k in ("metrics", "attempted", "failed",
                                                      "mismatches", "controls")}
                                  for it in untraced + traced],
                   "spans": [s for it in traced for s in it["spans"]]}, fh)

    print("stamp " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"iterations untraced={len(untraced)} traced={len(traced)} result={os.path.relpath(path, ROOT)}")
    for it in untraced + traced:
        for m in it["mismatches"]:
            print(f"mismatch {m}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
