"""The shipped examples must keep running.

Fast examples run end-to-end (scaled down where they expose knobs);
slow ones are at least imported and their pieces exercised.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    names = {p.stem for p in EXAMPLES.glob("*.py")}
    assert {"quickstart", "characterize_nvram", "design_space",
            "cloud_optimization", "persistent_log",
            "serve_client"} <= names


def test_persistent_log_example(capsys):
    module = load_example("persistent_log")
    module.main()
    out = capsys.readouterr().out
    assert "torn=True" in out       # the buggy variant tears
    assert "0/12" in out            # the ordered one never does


def test_quickstart_example(capsys):
    module = load_example("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "16K" in out
    assert "latency" in out


def test_design_space_example(capsys):
    module = load_example("design_space")
    module.main()
    out = capsys.readouterr().out
    assert "RMW buffer size sweep" in out
    assert "DIMM population sweep" in out


def test_cloud_optimization_example_scaled(capsys):
    module = load_example("cloud_optimization")
    module.NOPS = 3000
    module.WARMUP = 1500
    module.main()
    out = capsys.readouterr().out
    assert "linkedlist" in out


def test_characterize_example_pieces(capsys):
    """Full LENS on the mystery DIMM is minutes; exercise its pieces."""
    module = load_example("characterize_nvram")
    config = module.mystery_config()
    assert config.dimm.rmw.capacity_bytes == 32 * 1024
    assert config.dimm.ait.capacity_bytes == 8 * 1024 * 1024


def test_serve_client_example(capsys):
    module = load_example("serve_client")
    module.main()
    out = capsys.readouterr().out
    assert "bit-identical" not in out      # the assert inside held
    assert "payload identical to the first run" in out
    assert "rejected (code 429)" in out
    assert "shut down cleanly" in out
