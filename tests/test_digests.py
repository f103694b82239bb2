"""Output bytes pinned by SHA-256 digest.

Every CSV of ``bridgekit run`` and the arrays of ``run_sampler`` and
``decode`` are hashed for fixed configs and compared with digests recorded
from the sampler before its engine was rewritten step-major (x86-64 Linux,
numpy 2.4 with its bundled OpenBLAS).  The ``marginals``, ``drift-check``
and ``convergence`` CSVs and the two d = 16 ``sample`` CSVs were recorded
later, from the step-major engine before the oracle and the engine tiled
their row constants.  Any change to the arithmetic, its
order or the noise keying shows here.  A platform whose BLAS rounds the 2×2
products differently needs the digests recorded again.

``n_trajectories=600`` covers two full 256-row noise chunks plus an
88-row tail.  A 257-row run leaves a last chunk of one row: the seed engine
predicted it with a one-row matrix product, which rounds differently from
the batched kernel, so that row is compared to 1e-12 and the others exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from bridgekit import GaussianOracle, Method, SamplerConfig, decode, run_sampler
from bridgekit.cli import load_config, main

PROBLEM = {
    "mix": [[0.2, 0.0], [0.1, 0.3]],
    "offset": [0.4, -0.2],
    "cov": [[1.0, 0.3], [0.3, 0.5]],
    "x_T": [1.0, -0.5],
}

# d = 16: tridiagonal covariance, near-diagonal mix
PROBLEM_D16 = {
    "mix": [[0.3 if i == j else 0.01 * (i - j) for j in range(16)] for i in range(16)],
    "offset": [0.1 * i - 0.8 for i in range(16)],
    "cov": [[1.0 if i == j else 0.3 if abs(i - j) == 1 else 0.0 for j in range(16)] for i in range(16)],
    "x_T": [0.5 * (-1) ** i + 0.03 * i for i in range(16)],
}

# (name, sampler section, n_trajectories, experiment, extra keys)
RUNS = [
    ("dbim1_eta0", {"method": "dbim1", "eta": 0.0}, 600, "sample", {}),
    ("dbim1_eta0.5", {"method": "dbim1", "eta": 0.5}, 600, "sample", {}),
    ("dbim1_eta1", {"method": "dbim1", "eta": 1.0}, 600, "sample", {}),
    ("dbim2", {"method": "dbim2"}, 600, "sample", {}),
    ("dbim3", {"method": "dbim3"}, 600, "sample", {}),
    ("pf_ode_euler", {"method": "pf_ode_euler"}, 600, "sample", {}),
    ("pf_ode_heun", {"method": "pf_ode_heun"}, 600, "sample", {}),
    ("sde_euler_maruyama", {"method": "sde_euler_maruyama"}, 600, "sample", {}),
    ("roundtrip", {"method": "dbim1"}, 20, "roundtrip", {}),
    ("interpolate", {"method": "dbim1"}, 1, "interpolate", {}),
    ("diversity", {"method": "dbim1", "eta": 0.5, "n_steps_sweep": [4, 8]}, 1, "diversity",
     {"options": {"n_conditions": 3, "samples_per_condition": 5}}),
    ("marginals", {"method": "dbim1", "eta": 0.5}, 600, "marginals", {}),
    ("drift_check", {"method": "dbim1"}, 1, "drift-check", {"options": {"n_points": 200}}),
    ("convergence", {"method": "dbim1", "n_steps_sweep": [4, 8, 16]}, 1, "convergence", {}),
    ("d16_dbim3", {"method": "dbim3"}, 600, "sample", {"problem": PROBLEM_D16}),
    ("d16_dbim1_eta1", {"method": "dbim1", "eta": 1.0}, 600, "sample", {"problem": PROBLEM_D16}),
]

CSV_DIGESTS = {
    "dbim1_eta0": "b915febe60d34bbc5bb15be585437d2c3eb1e3c005026c9090c72575f9d6c747",
    "dbim1_eta0.5": "082ed5ea7c1de9c148bfd7cd8b76fa8f38e84953d80f18e5d6b3e156f48923ae",
    "dbim1_eta1": "7529b1073427f49649ec9a6ed1d2729561cc77333c7930e8ef9f4f762e8c8010",
    "dbim2": "6af98eec73aa8db3b9f8464d2eb6805749fe609c6834f34c4dc1752165863a7b",
    "dbim3": "0f9484a98c886f67290637465456790e3c7a11e285e69a7eb047112f45d0721b",
    "pf_ode_euler": "c95a8067dcf38643b229e49ec9971d2f5a4ea6f68ecbb4eac4cb5b4c26888def",
    "pf_ode_heun": "30e6ba78774a82f56a6ed7fa76c64c90f121955d4cf6a49edecc3b42f6f15506",
    "sde_euler_maruyama": "49ecdd19f18b9c66537f1c7edbb314378c207f5c08b604f1c1f9464609e6b3e1",
    "roundtrip": "0ff667372c8e337c2cf9d038c47a24a70272bba627555718c51b9cf0f0d848f4",
    "interpolate": "4ec560097e82a42931eb041f0bd38d684704ad8033358cce06ab110ccb685284",
    "diversity": "f222b3cf35e702dd2efc257fdafe315917236bb0a090bab0ebc74a448e51f7ff",
    "marginals": "c1da01b7bdbaaef2429e00200cd66360af6d496dba67236f4f87012b7f6fc4e9",
    "drift_check": "ee016d354cf582ae21e08c446d1d5b44ea30032617bec723e0aa73c2ed47b020",
    "convergence": "cf4e47e56082601851913faa1bb036ffc7383b40e163c0e578ee3d3a8a4d8d20",
    "d16_dbim3": "d508bc6f5e5a3c6e33fd4a802736750229460005be7ecb406b2e3194e759fbf5",
    "d16_dbim1_eta1": "a27930fa1dbcc0c7bff516e59928c6c30a5278c92b35ccf0d1bc6daee09144c5",
}

STATES_DIGESTS = {
    "dbim1": "4b999072d966d78aee8650d8d542b53c744a26776513381911f508998eb87ecf",
    "dbim2": "4f775186ce9a3af093007dde7dc488e247bbb0a62504da4ccdaa253d036d85da",
    "dbim3": "051911ebf946fb9b289c71acf24c811b2d49b62d4e7ed2f33bcec49e55002e1d",
    "pf_ode_euler": "6110e6e162d2fb9528a050e1d8001a30a9c5cb2a7e0455c1c50f15822b39572e",
    "pf_ode_heun": "bdee33fb6545cd8800af1a62568f70db808096ebdb90979eb43c31a4a35be634",
    "sde_euler_maruyama": "6a3d9417b9f7b5c6f62ac828ad9de12d36a76471c3e4e46d4afa9087c78762d4",
}

DECODE_DIGEST = "6f8101890776691d97eea1eb93dcb13a489edd326f1a24effaf3572ee5a00c17"

# rows 0..255 of the 257-row dbim1 η=0.5 sample CSV, and its last row
HEAD_257_DIGEST = "0ab2e0d91ae5d412e548ad7fcd06787bf23418d46ac9f28e1ed1e52bfde86058"
LAST_ROW_257 = [0.29064260541376286, -0.13439362087947243]


def _config(sampler, n_traj, experiment, extra, n_steps=12):
    raw = {
        "schedule": {"kind": "brownian_bridge", "beta": 1.0, "horizon": 1.0},
        "problem": PROBLEM,
        "grid": {"kind": "uniform_boot", "n_steps": n_steps, "t_min": 1e-3, "boot_gap": 1e-3},
        "sampler": sampler,
        "experiment": experiment,
        "seed": 5,
        "n_trajectories": n_traj,
    }
    raw.update(extra)
    return raw


def _run_csv(tmp_path, raw) -> bytes:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    (csv_path,) = out.glob("*.csv")
    return csv_path.read_bytes()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,sampler,n_traj,experiment,extra", RUNS, ids=[r[0] for r in RUNS])
def test_csv_digest(tmp_path, name, sampler, n_traj, experiment, extra):
    assert _sha(_run_csv(tmp_path, _config(sampler, n_traj, experiment, extra))) == CSV_DIGESTS[name]


def _states_bytes(method: Method) -> bytes:
    cfg = load_config(_config({"method": method.value, "eta": 0.5 if method is Method.DBIM1 else 0.0},
                              2, "sample", {}))
    scfg = SamplerConfig(method, cfg.grid, seed=9, eta=cfg.eta)
    traj = run_sampler(scfg, cfg.schedule, GaussianOracle(cfg.problem, cfg.schedule), cfg.x_T)
    rows = np.array([np.append(t, x) for t, x in traj.states])
    return rows.tobytes() + traj.boot_noise.tobytes() + str(traj.predictor_calls).encode()


@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_run_sampler_states_digest(method):
    assert _sha(_states_bytes(method)) == STATES_DIGESTS[method.value]


def _decode_bytes() -> bytes:
    cfg = load_config(_config({"method": "dbim1"}, 2, "sample", {}, n_steps=30))
    oracle = GaussianOracle(cfg.problem, cfg.schedule)
    eps = np.random.default_rng(4).standard_normal((6, 2))
    return b"".join(decode(cfg.schedule, oracle, e, cfg.x_T, cfg.grid).tobytes() for e in eps)


def test_decode_digest():
    assert _sha(_decode_bytes()) == DECODE_DIGEST


def test_one_row_tail_chunk(tmp_path):
    body = _run_csv(tmp_path, _config({"method": "dbim1", "eta": 0.5}, 257, "sample", {}))
    lines = body.splitlines(keepends=True)
    assert len(lines) == 1 + 257
    assert _sha(b"".join(lines[:-1])) == HEAD_257_DIGEST
    last = [float(v) for v in lines[-1].decode().strip().split(",")]
    assert last[0] == 256
    np.testing.assert_allclose(last[1:], LAST_ROW_257, rtol=1e-12, atol=0.0)
