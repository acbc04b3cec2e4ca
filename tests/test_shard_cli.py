"""``repro-shard`` CLI."""

import json

import pytest

from repro.tools import shard_cli


OVR = ["--override", "ndimms=4", "--override", "interleaved=true"]


def test_run_prints_document(capsys):
    code = shard_cli.main(["run", "--requests", "600", "--shards", "2",
                           "--fork", "off", *OVR])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.shard/1"
    assert doc["ops"] == 600
    assert doc["plan"]["effective"] == 2


def test_identity_passes_on_vans(capsys):
    code = shard_cli.main(["identity", "--requests", "600",
                           "--shards", "2", "4", *OVR])
    assert code == 0
    out = capsys.readouterr().out
    assert "identical" in out
    assert "shard identity holds" in out


def test_identity_exercises_forked_path(capsys):
    code = shard_cli.main(["identity", "--requests", "400",
                           "--shards", "2", "--forked", *OVR])
    assert code == 0
    assert "forked" in capsys.readouterr().out


def test_crosscheck_vector_vs_scalar(capsys):
    code = shard_cli.main(["crosscheck", "--requests", "600",
                           "--kind", "rand", *OVR])
    assert code == 0
    assert "matches the scalar reference" in capsys.readouterr().out


def test_usage_error_exit_2(capsys):
    code = shard_cli.main(["run", "--kind", "burst", "--requests", "100",
                           "--override", "no_such_knob=1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_override_rejected():
    with pytest.raises(SystemExit):
        shard_cli.main(["run", "--override", "not-key-value"])


def test_ops_file_round_trip(tmp_path, capsys):
    ops = [{"op": "write", "addr": 0, "count": 64, "stride": 64},
           {"op": "fence"}]
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(ops))
    code = shard_cli.main(["run", "--ops", str(path), "--shards", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ops"] == 64
