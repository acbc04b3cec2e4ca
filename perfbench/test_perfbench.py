"""Self-checks of the benchmark (not part of the tier-1 suite).

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import time

import pytest

import run
from layers import LAYERS, layer_of


@pytest.fixture(scope="module")
def runner():
    return run.Runner(run.ROOT / "src", time.monotonic())


@pytest.fixture(scope="module")
def pins():
    return json.loads(run.PINS.read_text())


def test_fig1_requests_are_counted_once_per_target(runner, pins):
    doc, _ = runner.child("fig1", "5", "--trace")
    run.check(doc, pins["fig1"], "all")
    by_target = doc["trace"]["requests_by_target"]
    assert by_target == {"pmep": 271_443, "vans-1dimm": 9_296}
    assert doc["trace"]["metrics"]["requests"] == 280_739 == 271_443 + 9_296
    metrics = doc["trace"]["metrics"]
    assert metrics["baselines.pmep.requests"] == 271_443
    assert metrics["vans.requests"] == 9_296
    for key in doc["trace"]["frames"]:
        assert layer_of(key) in LAYERS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pins_hold_on_an_unseen_seed(runner, pins, workload):
    doc, _ = runner.child(workload, "9173")
    run.check(doc, pins[workload], "all")


def test_a_changed_output_fails_the_check(pins):
    doc = {"outputs": json.loads(json.dumps(pins["tables"]["results"]))}
    doc["outputs"][2]["rows"][0][3] += 1e-12
    with pytest.raises(run.ChildFailed, match=r"results\[2\]\.rows\[0\]\[3\]"):
        run.check(doc, pins["tables"], "all")
    run.check(doc, pins["tables"], "metrics")


@pytest.mark.parametrize("key", ["harness", "vans.read", "imc.write",
                                 "ddrt.send_write", "ait.read_block",
                                 "media.access", "wear.on_write",
                                 "ramulator-ddr4.read", "pmep.write_nt"])
def test_every_station_key_has_one_layer(key):
    assert layer_of(key) in LAYERS


def test_an_unmapped_key_fails_the_layer_map():
    with pytest.raises(ValueError, match="exactly one"):
        layer_of("handler.Engine.tick")


def test_missing_source_tree_exits_nonzero(tmp_path, capsys):
    code = run.main(["--workload", "fig1", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--src", str(tmp_path)])
    assert code != 0
    assert capsys.readouterr().out == ""
