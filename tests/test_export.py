"""Experiment result export and the runner CLI."""

import json

import pytest

from repro.engine.stats import LatencySeries
from repro.experiments.common import ExperimentResult
from repro.experiments.export import (
    load_json,
    result_to_dict,
    save_csv,
    save_json,
)
from repro.experiments.runner import main as runner_main


def sample_result():
    result = ExperimentResult("figX", "sample", columns=["a", "b"])
    result.add_row(1, 2.5)
    result.add_row(3, 4.0)
    series = LatencySeries("curve")
    series.add(1024, 130.0)
    series.add(2048, 190.0)
    result.series["curve"] = series
    result.metrics["m"] = 0.5
    result.notes = "note"
    return result


def test_result_to_dict_roundtrip_fields():
    d = result_to_dict(sample_result())
    assert d["experiment"] == "figX"
    assert d["rows"] == [[1, 2.5], [3, 4.0]]
    assert d["series"]["curve"]["x"] == [1024, 2048]
    assert d["metrics"]["m"] == 0.5


def test_save_and_load_json(tmp_path):
    path = tmp_path / "out.json"
    assert save_json([sample_result(), sample_result()], path) == 2
    loaded = load_json(path)
    assert len(loaded) == 2
    assert loaded[0]["title"] == "sample"


def test_save_csv(tmp_path):
    path = tmp_path / "out.csv"
    assert save_csv(sample_result(), path) == 2
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "2.5" in text


def test_runner_cli_with_json_export(tmp_path, capsys):
    out = tmp_path / "fig1.json"
    assert runner_main(["fig1", "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fig1a" in stdout
    data = json.loads(out.read_text())
    assert {d["experiment"] for d in data} == {"fig1a", "fig1b"}


def test_runner_cli_telemetry_csv(tmp_path, capsys):
    out = tmp_path / "telemetry.csv"
    assert runner_main(["fig1", "--telemetry",
                        "--telemetry-csv", str(out)]) == 0
    assert out.read_text().splitlines()[0]


def test_runner_cli_plot_flag(capsys):
    assert runner_main(["fig1", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "legend:" in out
