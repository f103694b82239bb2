"""What importing bridgekit loads and leaves behind, and the path-loaded LAPACK ``dposv``.

Each check runs in a fresh interpreter, since the test process has loaded
scipy.linalg by the time it gets here.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import bridgekit

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(bridgekit.__file__)))

_CONFIG = {
    "schedule": {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
    "problem": {
        "mix": [[0.2, 0.0], [0.1, 0.3]],
        "offset": [0.4, -0.2],
        "cov": [[1.0, 0.3], [0.3, 0.5]],
        "x_T": [1.0, -0.5],
    },
    "grid": {"kind": "uniform_boot", "n_steps": 8},
    "sampler": {"method": "dbim1", "eta": 1.0},
    "experiment": "sample",
    "seed": 3,
    "n_trajectories": 8,
}


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter with bridgekit importable; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_skips_scipy_linalg_package():
    loaded = set(run_fresh("""
        import json, sys
        import bridgekit.cli
        print(json.dumps(sorted(sys.modules)))
    """))
    for name in ("scipy.linalg", "scipy.linalg._flapack", "scipy.optimize", "scipy.integrate", "numpy.f2py"):
        assert name not in loaded
    assert "numpy.random" in loaded


def test_first_run_imports_no_numpy_or_scipy_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_CONFIG))
    rc, added = run_fresh("""
        import json, sys
        import bridgekit.cli as cli
        before = set(sys.modules)
        rc = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
        print(json.dumps([rc, sorted(set(sys.modules) - before)]))
    """, str(config), str(tmp_path / "out"))
    assert rc == 0
    assert [m for m in added if m.startswith(("numpy", "scipy"))] == []


def test_dposv_byte_equal_to_scipy_lapack():
    same = run_fresh("""
        import json
        import numpy as np
        from bridgekit import oracle
        from scipy.linalg.lapack import dposv

        rng = np.random.default_rng(7)
        systems = []
        for d in range(1, 65):
            r = rng.standard_normal((d, d))
            systems.append((r @ r.T + 0.1 * np.eye(d), rng.standard_normal((d, d))))
        # singular: dpotrf stops at the second leading minor, info = 2
        systems.append((np.ones((3, 3)), np.eye(3)))
        same = []
        for a, b in systems:
            (ca, xa, ia), (cb, xb, ib) = oracle.dposv(a, b, lower=0), dposv(a, b, lower=0)
            same.append(ia == ib and ca.tobytes() == cb.tobytes() and xa.tobytes() == xb.tobytes())
        print(json.dumps([same, ia]))
    """)
    assert same == [[True] * 65, 2]


def test_later_scipy_linalg_import_works():
    out = run_fresh("""
        import json, sys
        import numpy as np
        from bridgekit import oracle
        import scipy.linalg
        x = scipy.linalg.solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([1.0, 1.0]))
        print(json.dumps([x.tolist(), "scipy.linalg._flapack" in sys.modules,
                          hasattr(scipy.linalg.lapack, "dposv")]))
    """)
    assert out == [[0.5, 0.25], True, True]


def test_scipy_linalg_loaded_first_is_reused():
    out = run_fresh("""
        import json, sys
        import scipy.linalg.lapack
        flapack = sys.modules["scipy.linalg._flapack"]
        from bridgekit import oracle
        print(json.dumps([oracle.dposv is scipy.linalg.lapack.dposv,
                          sys.modules.get("scipy.linalg._flapack") is flapack]))
    """)
    assert out == [True, True]


def test_missing_extension_falls_back_to_scipy_lapack(tmp_path):
    out = run_fresh("""
        import json, sys
        from bridgekit import oracle
        assert "scipy.linalg" not in sys.modules
        dposv = oracle._load_dposv([sys.argv[1]])
        import scipy.linalg.lapack
        print(json.dumps(dposv is scipy.linalg.lapack.dposv))
    """, str(tmp_path))
    assert out is True


def test_unloadable_extension_falls_back_to_scipy_lapack(tmp_path):
    out = run_fresh("""
        import importlib.machinery, json, os, sys
        from bridgekit import oracle
        linalg = os.path.join(sys.argv[1], "linalg")
        os.mkdir(linalg)
        with open(os.path.join(linalg, "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]), "wb") as f:
            f.write(b"not a shared object")
        dposv = oracle._load_dposv([sys.argv[1]])
        import scipy.linalg.lapack
        print(json.dumps([dposv is scipy.linalg.lapack.dposv,
                          sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack]))
    """, str(tmp_path))
    assert out == [True, True]


@pytest.mark.parametrize("timeout", [None, "20"])
def test_import_leaves_environ_unchanged(monkeypatch, timeout):
    if timeout is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", timeout)
    before, after = run_fresh("""
        import json, os
        before = dict(os.environ)
        import bridgekit.cli
        print(json.dumps([before, dict(os.environ)]))
    """)
    assert after == before
    assert after.get("OPENBLAS_THREAD_TIMEOUT") == timeout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_blas_worker_threads_do_not_spin(monkeypatch):
    # OpenBLAS starts its worker threads when it loads; with the default
    # timeout each busy-waits about 0.1 s of CPU before it sleeps
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    cpu_s = run_fresh("""
        import json, os, time
        import bridgekit.cli
        time.sleep(0.3)
        ticks = 0
        for tid in os.listdir("/proc/self/task"):
            if int(tid) != os.getpid():
                with open(f"/proc/self/task/{tid}/stat") as f:
                    fields = f.read().rpartition(")")[2].split()
                ticks += int(fields[11]) + int(fields[12])  # utime, stime
        print(json.dumps(ticks / os.sysconf("SC_CLK_TCK")))
    """)
    assert cpu_s <= 0.020
