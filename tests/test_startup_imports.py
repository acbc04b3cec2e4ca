"""Start-up imports: a one-experiment process loads only what it runs.

The registry names each experiment's module and imports it on the
first run of that id; numpy loads with the first Zipf sampler (fig12,
fig13 only); the process supervisor, and with it ``multiprocessing``,
loads only on the fan-out path; the LENS probers load with the first
``characterize()``, not with the static tables beside it.  The import guards start a fresh
interpreter, since this test session has long since imported
everything; the last test checks that every registry entry names a
module that exists, which would otherwise surface only when that
experiment ran.
"""

import json
import os
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path

import pytest

import repro
from repro.experiments.exec import REGISTRY

#: experiment-package modules every runner process needs
_CORE = {"repro.experiments", "repro.experiments.common",
         "repro.experiments.exec", "repro.experiments.runner"}

_REPORT = """
import json, sys
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "multiprocessing": "multiprocessing" in sys.modules,
    "experiments": sorted(m for m in sys.modules
                          if m.startswith("repro.experiments")),
    "probers": sorted(m for m in sys.modules
                      if m.startswith("repro.lens.probers")),
}))
"""


def _python(*args):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded_after(code):
    """What ``sys.modules`` holds after running ``code`` fresh."""
    script = textwrap.dedent(code) + _REPORT
    return json.loads(_python("-c", script).stdout.splitlines()[-1])


def test_runner_import_loads_no_experiment_numpy_or_multiprocessing():
    loaded = _loaded_after("import repro.experiments.runner")
    assert loaded["numpy"] is False
    assert loaded["multiprocessing"] is False
    assert set(loaded["experiments"]) == _CORE


@pytest.mark.parametrize("exp_id, module", [("fig1", "fig01"),
                                            ("tables", "tables")])
def test_a_run_loads_only_its_own_experiment(exp_id, module):
    loaded = _loaded_after(f"""
        from repro.experiments.runner import run_experiment
        run_experiment({exp_id!r})
        """)
    assert loaded["numpy"] is False
    assert loaded["multiprocessing"] is False
    assert set(loaded["experiments"]) == _CORE | {
        f"repro.experiments.{module}"}
    # tables reads only the static TABLE_I/TABLE_II of repro.lens.report
    assert loaded["probers"] == []


def test_list_imports_no_experiment_module():
    proc = _python("-X", "importtime", "-m", "repro.experiments.runner",
                   "--list")
    assert "fig13" in proc.stdout
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2}
    assert "repro.experiments.exec" in imported
    experiments = {m for m in imported if m.startswith("repro.experiments")}
    assert experiments <= _CORE
    assert "numpy" not in imported


@pytest.mark.parametrize("exp_id", list(REGISTRY))
def test_every_registry_entry_resolves(exp_id):
    module = import_module(f"repro.experiments.{REGISTRY[exp_id].run.module}")
    assert callable(module.run)
