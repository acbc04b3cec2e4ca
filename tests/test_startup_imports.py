"""Start-up imports: a one-experiment process loads only what it runs.

The registry names each experiment's module and imports it on the
first run of that id; numpy loads with the first Zipf sampler (fig12,
fig13 only); the process supervisor, and with it ``multiprocessing``,
loads only on the fan-out path; the LENS probers load with the first
``characterize()``, not with the static tables beside it.  Observer,
export and CLI code loads the first time a run asks for it: the
packages that re-export it resolve their names lazily, so a plain run
never imports the modules in :data:`_DEFERRED` (nor ``hashlib``, whose
OpenSSL mapping alone costs ~3.7 MB of RSS).

The import guards start a fresh interpreter, since this test session
has long since imported everything; so does the test that attaches
every observer, which in-process would find modules that start-up had
already loaded.  The last test checks that every registry entry names
a module that exists, which would otherwise surface only when that
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

#: modules no plain fig1 or tables run executes: observers' exporters
#: and reports, the fault-plan machinery, the attach port with its event
#: kernel, the functional model, the tracing proxy, the DRAM protocol
#: checker, and the stdlib modules they pull in
_DEFERRED = (
    "repro.faults.plan", "repro.faults.persistence", "repro.faults.report",
    "repro.flight.chrome", "repro.flight.report",
    "repro.telemetry.export", "repro.telemetry.manifest",
    "repro.prof.export", "repro.prof.diff",
    "repro.vans.attach", "repro.vans.functional", "repro.vans.tracing",
    "repro.engine.event", "repro.dram.verifier",
    "hashlib", "argparse", "subprocess", "platform", "csv", "datetime",
)

#: packages whose re-exports resolve on first use (``repro._lazy``)
_LAZY_PACKAGES = ("repro", "repro.vans", "repro.faults", "repro.flight",
                  "repro.telemetry", "repro.prof")

_REPORT = f"""
import json, sys
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "multiprocessing": "multiprocessing" in sys.modules,
    "experiments": sorted(m for m in sys.modules
                          if m.startswith("repro.experiments")),
    "probers": sorted(m for m in sys.modules
                      if m.startswith("repro.lens.probers")),
    "deferred": [m for m in {_DEFERRED!r} if m in sys.modules],
}}))
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


def _json_after(code):
    """The JSON object ``code`` prints last, run fresh."""
    return json.loads(_python("-c", textwrap.dedent(code))
                      .stdout.splitlines()[-1])


def test_runner_import_loads_no_experiment_numpy_or_multiprocessing():
    loaded = _loaded_after("import repro.experiments.runner")
    assert loaded["numpy"] is False
    assert loaded["multiprocessing"] is False
    assert set(loaded["experiments"]) == _CORE
    assert loaded["deferred"] == []


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
    assert loaded["deferred"] == []


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


def test_lazy_exports_resolve_to_their_defining_modules():
    """Every name in a lazy package's ``__all__`` resolves, is cached on
    the package, and is the very object its defining module binds: a
    misspelt name, or one listed under a module that lacks it, fails
    here.  Any other name raises ``AttributeError``, so ``from package
    import submodule`` still imports the submodule."""
    problems = _json_after(f"""
        import json, sys
        from importlib import import_module
        from repro import registry
        from repro.telemetry import manifest
        from repro.vans import tracing
        problems = []
        for package in {_LAZY_PACKAGES!r}:
            pkg = import_module(package)
            if hasattr(pkg, "no_such_export"):
                problems.append(f"{{package}}: unknown name resolves")
            for name in pkg.__all__:
                try:
                    value = getattr(pkg, name)
                except AttributeError as exc:
                    problems.append(f"{{package}}.{{name}}: {{exc}}")
                    continue
                if vars(pkg).get(name) is not value:
                    problems.append(f"{{package}}.{{name}}: not cached")
                # classes, functions and instances name their module
                home = getattr(value, "__module__", None)
                if (isinstance(home, str) and home.startswith(package + ".")
                        and getattr(sys.modules[home], name, None)
                        is not value):
                    problems.append(f"{{package}}.{{name}}: resolves to "
                                    f"{{home}}, which does not bind it")
        print(json.dumps(problems))
        """)
    assert problems == []


def test_observers_load_on_demand_in_a_fresh_interpreter():
    """A run with a flight recorder, a telemetry spec and a profiler, and
    a stream under a power-cut plan document, each fill their result
    document from a fresh start, loading the deferred modules they use."""
    doc = _json_after("""
        import json, sys
        from repro.experiments.runner import run_experiment
        from repro.experiments.exec import run_stream
        from repro.flight import FlightRecorder
        from repro.prof import Profiler
        recorder, prof = FlightRecorder(mode="every", every=16), Profiler()
        [result] = run_experiment("numa", flight=recorder, prof=prof,
                                  telemetry={"interval_ps": 1_000_000})
        stream = run_stream("vans", [{"op": "write", "count": 10},
                                     {"op": "fence"}],
                            faults={"schema": "repro.faultplan/1",
                                    "faults": [{"kind": "power_cut",
                                                "at_request": 5}]})
        print(json.dumps({
            "flight": result.flight,
            "telemetry": result.telemetry,
            "frames": len(prof.to_dict()["frames"]),
            "faults": stream["faults"],
            "loaded": [m for m in ("repro.flight.report",
                                   "repro.faults.plan",
                                   "repro.faults.persistence",
                                   "repro.faults.report")
                       if m in sys.modules],
        }))
        """)
    assert doc["flight"]["sampling"]["kept"] > 0
    assert doc["flight"]["breakdowns"]
    assert doc["telemetry"]["timeline"]["series"]
    assert doc["telemetry"]["summary"]
    assert doc["frames"] > 0
    assert doc["faults"]["summary"]["counters"]["power_cuts"] == 1
    assert doc["faults"]["persistence"]["acked_lines"] > 0
    assert len(doc["loaded"]) == 4


@pytest.mark.parametrize("exp_id", list(REGISTRY))
def test_every_registry_entry_resolves(exp_id):
    module = import_module(f"repro.experiments.{REGISTRY[exp_id].run.module}")
    assert callable(module.run)
