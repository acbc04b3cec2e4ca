"""``repro-shard`` CLI and the kernel suite's shard bench cases."""

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


# -- bench cases ------------------------------------------------------------

def test_shard_bench_cases_report_bench_shape():
    from repro.shard.bench import run_shard_bench
    numbers = run_shard_bench(nrequests=2048, seed=1)
    assert set(numbers) == {"ddrt_burst", "media_randmix"}
    for case in numbers.values():
        assert case["events"] == 2048
        assert 0 <= case["order_checksum"] < 2 ** 32
        assert case["speedup"] > 0
        assert case["legacy_events_per_s"] > 0
        assert case["optimized_events_per_s"] > 0
        assert case["kernel_stats"]["plan"]["effective"] >= 1
    # the --shards knob overrides each case's own shard count, and the
    # checksum is shard-count-invariant (identity by construction)
    at4 = run_shard_bench(nrequests=2048, seed=1, shards=4)
    for name, case in at4.items():
        assert case["kernel_stats"]["plan"]["requested"] == 4
        assert case["order_checksum"] == numbers[name]["order_checksum"]


def test_kernel_suite_lists_shard_cases():
    from repro.telemetry.bench import suite_ids
    ids = suite_ids("kernel")
    assert "shard.ddrt_burst" in ids
    assert "shard.media_randmix" in ids
    assert not [i for i in ids if i.startswith("kernel.")]
