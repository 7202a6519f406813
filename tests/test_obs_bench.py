"""`repro.obs.bench`: the environment fingerprint benchmark results carry.

``benchmarks/e2e/series.py`` imports :func:`fingerprint` from this path
and stamps its keys into every result series; ``repro.obs`` itself must
not import the module.
"""

import json
import pathlib
import platform
import subprocess
import sys

import numpy as np

import repro
import repro.obs.bench as bench
from repro.obs.bench import fingerprint


def test_fingerprint_has_the_keys_series_stamps():
    env = fingerprint()
    assert set(env) == {
        "python", "implementation", "platform", "machine", "cpu_count", "numpy",
        "package_version", "git_sha", "calibration",
    }
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["calibration"]) == {"gnmt", "bert", "awd"}
    assert env["calibration"]["awd"]["batch_size"] == 40
    assert json.loads(json.dumps(env)) == env


def test_git_sha_is_none_without_git(monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", no_git)
    assert bench._git_sha() is None
    assert fingerprint()["git_sha"] is None


def test_obs_package_does_not_import_bench():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys, repro.obs, repro.sched; "
        "print(sorted(m for m in ('repro.obs.bench', 'tracemalloc') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
