"""One `bridgekit run` invocation in a fresh interpreter.

Usage: ``python3 child.py SPEC_JSON`` where the spec holds ``src`` (the
directory that contains the ``bridgekit`` package), ``argv`` (one list of
CLI arguments per run, made one after another), ``trace`` (bool; a traced
child makes one run) and ``spans_path`` (where a traced run writes its
spans, or null).

The child prints ``ready`` once ``bridgekit.cli`` is imported, so the parent
can time set-up from spawn to that line, then calls ``bridgekit.cli.main``
for each run and prints one JSON line with each run's exit code and wall
time and the peak RSS, plus the span aggregates when traced.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    if spec["trace"]:
        import numpy  # noqa: F401  the third-party modules bridgekit imports
        import scipy.integrate  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.optimize  # noqa: F401
    t1 = time.perf_counter()
    import bridgekit
    import bridgekit.cli as cli

    t2 = time.perf_counter()
    if not os.path.realpath(bridgekit.__file__).startswith(src + os.sep):
        print(f"bridgekit imported from {bridgekit.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    result = {}
    if spec["trace"]:
        import spans

        coeffs_fn = getattr(sys.modules["bridgekit.schedule"], "coeffs", None)
        cache_info = getattr(coeffs_fn, "cache_info", None)
        before = cache_info() if cache_info else None
        recorder = spans.Recorder()
        spans.install(recorder)
    runs = []
    for run_id, argv in enumerate(spec["argv"], 1):
        if spec["trace"]:
            recorder.run_id = run_id
        start = time.perf_counter()
        rc = cli.main(argv)
        runs.append({"rc": rc, "run_s": time.perf_counter() - start})
    if spec["trace"]:
        after = cache_info() if cache_info else None
        if before is not None:
            result["coeffs_cache"] = {
                "hits": after.hits - before.hits,
                "misses": after.misses - before.misses,
            }
        result.update({
            "import_deps_s": t1 - t0,
            "import_bridgekit_s": t2 - t1,
            "aggregate": spans.aggregate(recorder.spans),
            "accounting": spans.root_accounting(recorder.spans),
            "counters": dict(recorder.counters),
            "missing": sorted(recorder.missing),
        })
        if spec.get("spans_path"):
            recorder.dump(spec["spans_path"])
    result.update({
        "runs": runs,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
