"""Baseline-artifact plumbing shared by the bench suite and run_all.

``results/BENCH_*.json`` files are the repo's performance baselines:
every one carries a ``schema_version`` + ``run`` provenance block so
downstream tooling can reject shapes it does not understand and trace
a regression back to the interpreter/commit that produced it. The
pytest benchmark suite (``benchmarks/conftest.py``) and the
multiprocess experiment runner (:mod:`repro.experiments.run_all`) both
write through here so the header never forks.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import sys
from typing import Optional

#: bump when the shape of the BENCH_*.json baselines changes
BENCH_SCHEMA_VERSION = 2


def _git_commit(repo_root: Optional[pathlib.Path] = None) -> str:
    """Short HEAD hash, ``-dirty`` when tracked files differ from it;
    ``unknown`` outside a git work tree."""
    root = repo_root or pathlib.Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7",
             "--exclude=*"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_metadata() -> dict:
    """Provenance block stamped into every baseline artifact."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "commit": _git_commit(),
        "argv_module": pathlib.Path(sys.argv[0]).name if sys.argv else "",
    }


def write_bench(results_dir: pathlib.Path, experiment: str,
                payload: dict, *, name: Optional[str] = None) -> pathlib.Path:
    """Write ``results/BENCH_<name>.json`` with the schema header.

    ``name`` defaults to ``experiment`` (BENCH_core.json predates the
    convention and keeps its historical file name).
    """
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench-baseline",
        "experiment": experiment,
        "run": run_metadata(),
        **payload,
    }
    path = pathlib.Path(results_dir) / f"BENCH_{name or experiment}.json"
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    return path
