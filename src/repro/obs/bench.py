"""Environment fingerprint for benchmark results.

``benchmarks/e2e`` stamps :func:`fingerprint` into every result series,
so a measurement records the machine, the interpreter, the commit and
the simulator calibration constants that produced it.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

__all__ = ["fingerprint"]


def _git_sha() -> str | None:
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _package_version() -> str:
    try:
        import importlib.metadata

        return importlib.metadata.version("repro")
    except Exception:
        return "unknown"


def fingerprint() -> dict:
    """Environment identity: python, platform, numpy, package version,
    git sha and the static simulator calibration constants."""
    from repro.core.simcfg import SIM_CALIBRATIONS

    MIB = 2**20
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "package_version": _package_version(),
        "git_sha": _git_sha(),
        "calibration": {
            name: {
                "batch_size": cal.batch_size,
                "activation_byte_scale": cal.activation_byte_scale,
                "param_byte_scale": cal.param_byte_scale,
                "memory_capacity_mib": cal.memory_capacity_bytes / MIB,
            }
            for name, cal in SIM_CALIBRATIONS.items()
        },
    }
