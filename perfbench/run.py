"""Benchmark of `bridgekit run` on three workloads, with a per-layer trace.

Run from the root of a bridgekit source tree:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 35 --trace 0

Load model: closed loop, one `bridgekit run` at a time, issued by this one
parent process.  Runs happen in fresh interpreters (``child.py``) with
``BRIDGEKIT_THREADS`` unset, so the CLI picks its default thread count (the
CPU count).  Each child imports bridgekit once and then makes
``RUNS_PER_CHILD`` runs, the first of them cold as every CLI invocation is.
The seed reaches the program only as the config ``seed``.  Children are
started until ``--seconds`` have passed and at least ``MIN_SAMPLES`` runs
are done.  One untimed, checked run first fills the bytecode and OS file
caches.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: spawn of the interpreter until ``bridgekit.cli`` is imported
  (median over children);
* ``run_s``: wall time of ``bridgekit.cli.main(["run", ...])`` (median) and
  ``run_s_tail``, the 11th-largest run: the highest percentile with ten
  samples beyond it.  The sample count is printed as ``samples``;
* ``traj_steps_per_s``: trajectories × steps / ``run_s``;
* ``peak_rss_mb``: ``ru_maxrss`` of the child (median over children).

A run fails on a non-zero exit code or a failed output check
(:mod:`checks`); ``failed`` / ``attempted`` in the result line is the fail
ratio.  All runs of one invocation use one seed, so every CSV must also
repeat the first one byte for byte.

``--trace 1`` repeats rounds of three runs, each in its own child: untraced,
traced (:mod:`spans` wraps each layer's entry points) and untraced with
``--threads 1``, and reports per-layer metrics as medians over rounds.  Per
trajectory-step figures divide by trajectories × steps as above.

Scratch output goes to ``.perfbench_out/`` in the working directory and is
removed on exit, except the spans of the last traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 40
MIN_ROUNDS = 3
RUNS_PER_CHILD = 5
MAX_MEASURE_S = 90.0
CHILD_TIMEOUT_S = 60.0

PROBLEM = {
    "mix": [[0.2, 0.0], [0.1, 0.3]],
    "offset": [0.4, -0.2],
    "cov": [[1.0, 0.3], [0.3, 0.5]],
    "x_T": [1.0, -0.5],
}

# The README 2-D problem on the Brownian-bridge schedule; sizes set each run
# to a few tenths of a second so that a run holds enough samples.
WORKLOADS = {
    # few-step deterministic regime: per-trajectory work is tiny, so row
    # building, CSV output, per-chunk overhead and the thread pool dominate;
    # noise is drawn only at the boot step
    "wide": {"method": "dbim1", "eta": 0.0, "n_steps": 40, "n_trajectories": 12800},
    # every step draws Philox noise and calls the predictor; CSV is small
    "deep": {"method": "dbim1", "eta": 1.0, "n_steps": 1000, "n_trajectories": 512},
    # exponential-integrator update with finite-difference history,
    # deterministic after the boot step
    "highorder": {"method": "dbim3", "eta": 0.0, "n_steps": 1000, "n_trajectories": 512},
}

# metric names and units, in the order BENCHMARK.json lists them
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


def make_config(workload: str, seed: int) -> dict:
    w = WORKLOADS[workload]
    return {
        "schedule": {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
        "problem": PROBLEM,
        "grid": {"kind": "uniform_boot", "n_steps": w["n_steps"], "t_min": 1e-4, "boot_gap": 1e-4},
        "sampler": {"method": w["method"], "eta": w["eta"]},
        "experiment": "sample",
        "seed": seed,
        "n_trajectories": w["n_trajectories"],
        "options": {},
    }


def traj_steps(workload: str) -> int:
    w = WORKLOADS[workload]
    return w["n_trajectories"] * w["n_steps"]


def run_child(src: Path, argvs: list[list[str]], trace: bool, spans_path: Path | None = None):
    """Spawn one child for the given runs; return (setup_s, result dict or None, error text)."""
    spec = {"src": str(src), "argv": argvs, "trace": trace, "spans_path": str(spans_path) if spans_path else None}
    env = {k: v for k, v in os.environ.items() if k != "BRIDGEKIT_THREADS"}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup_s, None, f"child exit {proc.returncode}: {err.strip()[-500:]}"
    try:
        return setup_s, json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return setup_s, None, f"unreadable child output: {out[-200:]!r}"


class Session:
    """One benchmark invocation: config, exact law, scratch directory, tallies."""

    def __init__(self, root: Path, workload: str, seed: int):
        import checks

        self.checks = checks
        self.src = root / "src"
        self.workload = workload
        self.raw = make_config(workload, seed)
        self.law = checks.expected_law(workload, self.raw)
        self.work = root / ".perfbench_out" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.work / "config.json"
        self.cfg_path.write_text(json.dumps(self.raw))
        self.digest = None
        self.threads_resolved = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._count = 0

    def run(self, repeats: int = 1, trace: bool = False, threads: int | None = None):
        """Run ``repeats`` checked runs in one child.

        Returns (setup_s, child result or None, run times of the runs that
        passed, CSV bytes of the last run).
        """
        out_dirs, argvs = [], []
        for _ in range(repeats):
            self._count += 1
            out_dirs.append(self.work / f"out{self._count}")
            argv = ["run", "--config", str(self.cfg_path), "--out", str(out_dirs[-1])]
            if threads is not None:
                argv += ["--threads", str(threads)]
            argvs.append(argv)
        spans_path = self.work / "spans.jsonl" if trace else None
        setup_s, result, error = run_child(self.src, argvs, trace, spans_path)
        self.attempted += repeats
        passed, csv_bytes = [], 0
        for i, out_dir in enumerate(out_dirs):
            if result is None:
                problems = [error]
            else:
                run = result["runs"][i]
                problems = [] if run["rc"] == 0 else [f"bridgekit run exited {run['rc']}"]
                problems += self._check(out_dir)
                csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
                if not problems:
                    passed.append(run["run_s"])
            if problems:
                self.failed += 1
                self.failures.extend(problems)
            shutil.rmtree(out_dir, ignore_errors=True)
        return setup_s, result, passed, csv_bytes

    def _check(self, out_dir: Path) -> list[str]:
        if self.digest is None:
            problems, digest = self.checks.check_output(self.workload, self.raw, self.law, out_dir)
            if not problems:
                self.digest = digest
            return problems
        # same config and seed: the CSV must repeat byte for byte, and the
        # first copy has passed the full check
        digest = self.checks.csv_digest(out_dir)
        return [] if digest == self.digest else [f"CSV digest {digest[:12]} differs from {self.digest[:12]}"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, int]:
    """End-to-end metrics and the number of timed runs."""
    setups, runs, rss = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and attempted >= MIN_SAMPLES) or elapsed >= MAX_MEASURE_S:
            break
        setup_s, result, passed, _ = session.run(RUNS_PER_CHILD)
        attempted += RUNS_PER_CHILD
        if result is not None:
            setups.append(setup_s)
            rss.append(result["maxrss_mb"])
        runs += passed
    if not runs:
        return {name: None for name, _ in END_TO_END}, 0
    run_s = _median(runs)
    return {
        "run_s": run_s,
        "run_s_tail": sorted(runs, reverse=True)[min(10, len(runs) - 1)],
        "traj_steps_per_s": traj_steps(session.workload) / run_s,
        "peak_rss_mb": _median(rss),
        "setup_s": _median(setups),
    }, len(runs)


def layer_metrics(workload: str, traced: dict, untraced_s: float, threads1_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced run; a metric whose seam is missing is None."""
    steps = traj_steps(workload)
    agg = traced["aggregate"]
    missing = set(traced["missing"])
    counters = traced["counters"]

    def span(name, key):
        if name in missing:
            return None
        return agg.get(name, {}).get(key, 0)

    def per(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    def total(*values):
        return None if None in values else sum(values)

    chunks = span("samplers.chunk", "calls")
    batches = span("samplers.sample_batch", "calls")
    make_rhos = span("bridge.make_rhos", "calls")
    gain_hits = counters.get("oracle.gain_cache.hits", 0)
    gain_lookups = gain_hits + counters.get("oracle.gain_cache.misses", 0)
    coeffs_cache = traced.get("coeffs_cache")
    return {
        "cli.self_ns_per_traj_step": per(span("cli.run", "self_ns"), steps),
        "cli.csv_bytes": csv_bytes,
        "cli.import_deps_s": traced["import_deps_s"],
        "cli.import_bridgekit_s": traced["import_bridgekit_s"],
        "samplers.sample_batch.self_ns_per_traj_step": per(
            total(span("samplers.sample_batch", "self_ns"), span("samplers.chunk", "self_ns")), steps
        ),
        "samplers.chunks": chunks,
        # a batched call serves every row of its chunk, so it counts once per chunk
        "samplers.predictor_calls_per_traj": per(span("oracle.predict", "calls"), chunks),
        "samplers.threads1_over_default": threads1_s / untraced_s,
        "samplers.noise.calls": span("samplers.noise", "calls"),
        "samplers.noise.ns_per_call": per(span("samplers.noise", "total_ns"), span("samplers.noise", "calls")),
        "samplers.noise.ns_per_traj_step": per(span("samplers.noise", "total_ns"), steps),
        "oracle.predict.calls": span("oracle.predict", "calls"),
        "oracle.predict.ns_per_row": per(span("oracle.predict", "total_ns"), span("oracle.predict", "rows")),
        "oracle.predict.ns_per_traj_step": per(span("oracle.predict", "total_ns"), steps),
        "oracle.gain_cache.hit_ratio": None if "oracle.gain_cache" in missing else per(gain_hits, gain_lookups),
        "schedule.coeffs.calls": span("schedule.coeffs", "calls"),
        "schedule.coeffs.hit_ratio": None if coeffs_cache is None else per(
            coeffs_cache["hits"], coeffs_cache["hits"] + coeffs_cache["misses"]
        ),
        "schedule.grid_coeffs_build_s": per(span("samplers.grid_coeffs_build", "total_ns"), 1e9),
        # one rho table per sample_batch is useful; with no call nothing is wasted
        "bridge.make_rhos.useful_ratio": None if make_rhos is None or batches is None
        else (min(1.0, batches / make_rhos) if make_rhos else 1.0),
        "bridge.make_rhos.calls": make_rhos,
        "trace.overhead_ratio": traced["run_s"] / untraced_s,
    }


def measure_layers(session: Session, seconds: float) -> tuple[dict, int]:
    """Per-layer metrics and the number of complete rounds."""
    rounds: list[dict] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and attempted >= MIN_ROUNDS) or elapsed >= MAX_MEASURE_S:
            break
        attempted += 1
        _, _, untraced, _ = session.run()
        _, traced, traced_ok, csv_bytes = session.run(trace=True)
        _, _, threads1, _ = session.run(threads=1)
        if not (untraced and traced_ok and threads1):
            continue
        duration, accounted = traced["accounting"]
        if duration == 0 or abs(accounted - duration) > 1e-6 * duration + 1000:
            session.failures.append(f"cli.run self + children = {accounted} ns, duration {duration} ns")
        traced["run_s"] = traced_ok[0]
        rounds.append(layer_metrics(session.workload, traced, untraced[0], threads1[0], csv_bytes))
    metrics = {}
    for name, _ in PER_LAYER:
        values = [r[name] for r in rounds if r.get(name) is not None]
        metrics[name] = _median(values)
    return metrics, len(rounds)


def environment(threads_resolved) -> dict:
    """Machine and library record, printed with every result."""
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "threads_resolved": threads_resolved,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        info["cpu"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bridgekit" / "cli.py").is_file():
        print(f"no bridgekit source tree at {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    session = Session(root, args.workload, args.seed)
    try:
        session.run()  # checked but not timed: fills bytecode and file caches
        if args.trace:
            metrics, samples = measure_layers(session, args.seconds)
            names = PER_LAYER
            spans_file = session.work / "spans.jsonl"
            if spans_file.exists():
                # the last traced run's spans, kept for inspection
                shutil.copyfile(spans_file, root / ".perfbench_out" / f"spans-{args.workload}.jsonl")
        else:
            metrics, samples = measure_end_to_end(session, args.seconds)
            names = END_TO_END
    finally:
        session.close()

    print("env " + json.dumps(environment(session.threads_resolved), sort_keys=True))
    for problem in session.failures[:20]:
        print(f"FAILED {problem}")
    fail_ratio = session.failed / session.attempted if session.attempted else 1.0
    print(f"{'samples' if not args.trace else 'rounds':44s} {samples} count")
    print(f"{'fail_ratio':44s} {fail_ratio:.4f} ratio")
    for name, unit in names:
        value = metrics[name]
        print(f"{name:44s} {'missing' if value is None else format(value, '.6g')} {unit}")
    correct = session.failed == 0 and not session.failures and session.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(session.attempted, 1),
        "failed": session.failed if session.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
