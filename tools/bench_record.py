"""Record `perfbench` end-to-end results as a ``BENCH_<n>.json`` file.

Run from the root of a bridgekit source tree:

    python3 tools/bench_record.py --out BENCH_7.json --workloads deep wide \\
        --seeds 11 12 13 14 15 --parent ../parent-tree

For each workload and seed this runs ``python3 perfbench/run.py --workload W
--seed S --seconds SECONDS --trace 0`` in the current tree (side
``change``) and in the ``--parent`` tree (side ``parent``), each tree with
its own ``perfbench/``; SECONDS is ``run_seconds`` of the current tree's
``BENCHMARK.json``.  The two sides of a pair run back to back, the parent
first in the first, third, ... pair and second in the others, so a drift of
the host does not favour either side.

Both trees must be git checkouts without uncommitted changes to tracked
files, so that the commit each side records is the code it measured.

The record holds the ``env`` line of the last invocation, the measuring
shell's ``environ`` settings that change what ``setup_s`` measures (BLAS
threading; with ``PYTHONDONTWRITEBYTECODE`` set, every child compiles
bridgekit from source), the commit of each side, every invocation's
metric values, sample count and fail counts, per workload and side each
metric's median, interquartile range (IQR) and number of invocations, and
per metric the number of pairs the change won, ties counting for neither
side.  A ``history`` list already present in the output file is kept, so
earlier measurements can be carried alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# settings of the measuring shell that the children inherit and that change
# set-up time; null in the record when unset
ENVIRON_KEYS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT", "OMP_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")


def environ() -> dict:
    """The value of each of ``ENVIRON_KEYS`` in this process's environment, or None."""
    return {key: os.environ.get(key) for key in ENVIRON_KEYS}


def invoke(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation in ``tree``: env line, metrics, sample and fail counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    samples = next(int(ln.split()[1]) for ln in lines if ln.startswith("samples "))
    result = json.loads(lines[-1])
    return env, {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "samples": samples,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def commit(tree: Path) -> str:
    """The commit checked out in ``tree``; exits if ``tree`` has uncommitted changes to tracked files."""
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree, capture_output=True, text=True, check=True)
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                            capture_output=True, text=True, check=True)
    if status.stdout.strip():
        sys.exit(f"{tree} has uncommitted changes; commit them so the record names the code it measured")
    return head.stdout.strip()


def summarize(runs: list[dict], units: dict) -> dict:
    """Median, IQR and count of each metric over ``runs``."""
    out = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs if r["metrics"].get(name) is not None]
        if not values:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values), "unit": unit}
    return out


def wins(pairs: list[dict], better: dict) -> dict:
    """Per metric, the number of pairs whose change value beats the parent's."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        out[name] = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0
            for p in pairs
            if p["change"]["metrics"].get(name) is not None and p["parent"]["metrics"].get(name) is not None
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="tree to pair the current one with")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": Path.cwd()}
    commits = {side: commit(path) for side, path in trees.items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    workloads = {}
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                env, pair[side] = invoke(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: " + json.dumps(pair[side]["metrics"]), flush=True)
            pairs.append(pair)
        entry = {side: summarize([p[side] for p in pairs], units) for side in trees}
        entry["pairs"] = pairs
        entry["change_wins"] = wins(pairs, better)
        workloads[workload] = entry

    previous = json.loads(args.out.read_text()) if args.out.exists() else {}
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "env": env,
        "environ": environ(),
        "commits": commits,
        "workloads": workloads,
        "history": previous.get("history", []),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
