"""Summaries that ``tools/bench_record.py`` writes into ``BENCH_<n>.json``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(**metrics):
    return {"metrics": metrics}


def test_summary_median_iqr_and_count():
    runs = [_run(run_s=v, setup_s=None) for v in (0.4, 0.1, 0.3, 0.2, 0.5)]
    summary = bench_record.summarize(runs, {"run_s": "s", "setup_s": "s"})
    assert summary == {"run_s": {"median": 0.3, "iqr": pytest.approx(0.2), "n": 5, "unit": "s"}}
    single = bench_record.summarize([_run(run_s=0.25)], {"run_s": "s"})
    assert single["run_s"] == {"median": 0.25, "iqr": 0.0, "n": 1, "unit": "s"}


def test_wins_follow_direction_and_ignore_ties():
    pairs = [
        {"parent": _run(run_s=0.2, rate=1.0), "change": _run(run_s=0.1, rate=2.0)},
        {"parent": _run(run_s=0.1, rate=2.0), "change": _run(run_s=0.2, rate=1.0)},
        {"parent": _run(run_s=0.1, rate=1.0), "change": _run(run_s=0.1, rate=1.0)},
        {"parent": _run(run_s=0.3, rate=1.0), "change": _run(run_s=0.2, rate=3.0)},
    ]
    assert bench_record.wins(pairs, {"run_s": "lower", "rate": "higher"}) == {"run_s": 2, "rate": 2}


def test_commit_names_head_and_refuses_uncommitted_changes(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    (tmp_path / "untracked.txt").write_text("ignored by the check\n")
    assert bench_record.commit(tmp_path) == git("rev-parse", "--short", "HEAD")
    (tmp_path / "a.txt").write_text("b\n")
    with pytest.raises(SystemExit, match="uncommitted changes"):
        bench_record.commit(tmp_path)


def test_environ_records_each_setting_or_null(monkeypatch):
    for key in bench_record.ENVIRON_KEYS:
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    assert bench_record.environ() == {
        "OPENBLAS_NUM_THREADS": "1",
        "OPENBLAS_THREAD_TIMEOUT": None,
        "OMP_NUM_THREADS": None,
        "PYTHONDONTWRITEBYTECODE": "",
    }
