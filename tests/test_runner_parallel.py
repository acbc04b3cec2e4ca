"""Parallel experiment runner: fan-out must be bit-identical to serial."""

import pytest

from repro.common.errors import ReproError, UnknownExperimentError
from repro.experiments.common import Scale
from repro.experiments.export import result_to_dict
from repro.experiments.runner import (
    REGISTRY,
    filter_ids,
    run_all,
    run_experiment,
    validate_ids,
)

FAST_IDS = ["fig1", "tables"]


class TestValidation:
    def test_validate_ids_accepts_known(self):
        assert validate_ids(FAST_IDS) == FAST_IDS

    def test_validate_ids_rejects_unknown(self):
        with pytest.raises(UnknownExperimentError) as exc_info:
            validate_ids(["fig1", "fig99"])
        assert isinstance(exc_info.value, ReproError)
        assert "fig99" in str(exc_info.value)
        assert "tables" in str(exc_info.value)

    def test_run_experiment_rejects_unknown(self):
        with pytest.raises(UnknownExperimentError):
            run_experiment("fig99", Scale.SMOKE)

    def test_filter_matches_metadata(self):
        assert "fig13" in filter_ids("lazy")
        assert filter_ids("zzz-no-match") == []


class TestMetadata:
    def test_every_spec_names_registry_targets(self):
        from repro import registry
        for spec in REGISTRY.values():
            assert spec.targets, spec.id
            for target in spec.targets:
                registry.spec(target)  # raises if unknown

    @pytest.mark.parametrize("exp_id", ["fig1", "fig6", "ablation",
                                        "energy", "numa", "bandwidth"])
    def test_targets_are_what_the_experiment_builds(self, monkeypatch,
                                                    exp_id):
        """``--list`` and the daemon's ``experiments`` verb publish
        ``targets``: it must name exactly the registry targets the run
        builds (directly or through a factory)."""
        from repro import registry
        built = set()
        build, factory = registry.build, registry.factory

        def recording(wrapped):
            def call(name, **overrides):
                built.add(name)
                return wrapped(name, **overrides)
            return call

        monkeypatch.setattr(registry, "build", recording(build))
        monkeypatch.setattr(registry, "factory", recording(factory))
        run_experiment(exp_id, Scale.SMOKE)
        assert built == set(REGISTRY[exp_id].targets)

    def test_costs_and_sections_present(self):
        for spec in REGISTRY.values():
            assert spec.est_cost > 0
            assert spec.section


def _deterministic_dict(result):
    """result_to_dict minus wall-clock fields (excluded by definition)."""
    doc = result_to_dict(result)
    doc.pop("wall_s")
    return doc


class TestParallelDeterminism:
    def test_workers_match_serial_bit_for_bit(self):
        serial = run_all(Scale.SMOKE, ids=FAST_IDS)
        parallel = run_all(Scale.SMOKE, ids=FAST_IDS, workers=4)
        assert [r.experiment for r in serial] == \
               [r.experiment for r in parallel]
        for a, b in zip(serial, parallel):
            assert _deterministic_dict(a) == _deterministic_dict(b)

    def test_wall_seconds_attached_to_every_result(self):
        for result in run_all(Scale.SMOKE, ids=["fig1"]):
            assert result.wall_s > 0
            assert result_to_dict(result)["wall_s"] == result.wall_s

    def test_instrumentation_attached_to_every_result(self):
        for result in run_all(Scale.SMOKE, ids=["fig1"]):
            instr = result.instrumentation
            assert instr["systems"] >= 1
            assert "dimm.rmw_misses" in instr
            assert any(k.endswith("media_port.busy_ps") for k in instr)
