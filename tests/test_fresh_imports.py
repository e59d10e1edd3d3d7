"""Every ``repro`` package and top-level module imports on its own.

Inside one pytest process the package is imported once, in whatever
order the first test happens to use, so an import cycle that only
breaks when a given module comes first stays hidden (an example
script importing ``repro.ganglia`` first used to die on a
half-initialised ``repro.transport.verbs``). Each import here runs in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules():
    root = SRC / "repro"
    names = ["repro"]
    for path in sorted(root.iterdir()):
        if path.is_dir() and (path / "__init__.py").exists():
            names.append(f"repro.{path.name}")
        elif path.suffix == ".py" and path.stem != "__init__":
            names.append(f"repro.{path.stem}")
    return names


@pytest.mark.parametrize("module", _modules())
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
