"""Tests for the vectorized structure-of-arrays explore fast path.

The vector engine promises *bit-identical* results to the per-point
object path wherever the scalar pipeline is pure float arithmetic, so
these tests compare whole serialized exploration documents — params,
metrics, failures, bottlenecks — with plain equality, never tolerances.
"""

import json
import math
import random

import pytest

from repro import units
from repro.api import Design, Simulator
from repro.api.registry import available_usecases
from repro.exceptions import ConfigurationError, SerializationError
from repro.explore import (
    ENGINE_COUNTERS,
    ExplorationResult,
    ExplorationSpec,
    Metric,
    choice,
    exploration_spec_from_dict,
    explore,
    grid,
    register_metric,
    zipped,
)
from repro.explore.metrics import _REGISTRY, available_metrics
from repro.explore.vector import VECTOR_MIN_POINTS, vector_support_error
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.components import ActivePixelSensor, ColumnADC
from repro.hw.analog.extended import SingleSlopeADC
from repro.hw.chip import SensorSystem
from repro.hw.digital.compute import ComputeUnit
from repro.hw.digital.memory import LineBuffer
from repro.hw.layer import SENSOR_LAYER, Layer
from repro.usecases.fig5 import FIG5_MAPPING, build_fig5_stages

#: Design-parameter axes of each registered usecase builder.
_DESIGN_AXES = {
    "fig5": {},
    "edgaze": {"placement": ["2D-In", "2D-Off", "3D-In", "3D-In-STT"],
               "cis_node": [130, 65]},
    "edgaze_mixed": {"cis_node": [130, 65]},
    "rhythmic": {"placement": ["2D-In", "2D-Off", "3D-In", "3D-In-STT"],
                 "cis_node": [130, 65]},
    "threelayer": {"burst_fps": [480.0, 960.0, 1920.0]},
}


def _documents(space, usecase, objectives, annotate=True):
    """Serialized object-path and vector-path results, engines stripped."""
    document_object = explore(space, usecase, objectives=objectives,
                              annotate=annotate,
                              engine="object").to_dict()
    document_vector = explore(space, usecase, objectives=objectives,
                              annotate=annotate,
                              engine="vector").to_dict()
    engines = document_vector.pop("engines")
    document_object.pop("engines")
    return document_object, document_vector, engines


def _sampled_space(usecase, rng, count):
    """``count`` random points: design axes and frame rate per point.

    Zipped axes give every point its own (design, rate) pair, so the
    run exercises the per-design grouping, not just one big batch.  A
    tail of absurd frame rates lands in TimingError territory, covering
    the infeasible-point path.
    """
    rates = [round(rng.uniform(5.0, 400.0), 3) for _ in range(count)]
    for index in rng.sample(range(count), count // 10):
        rates[index] = round(rng.uniform(1e5, 1e7), 1)
    axes = [choice("options.frame_rate", rates)]
    for name, values in _DESIGN_AXES[usecase].items():
        axes.append(choice(name, [rng.choice(values) for _ in range(count)]))
    return zipped(*axes) if len(axes) > 1 else axes[0]


class _LeakyLineBuffer(LineBuffer):
    """A line buffer with its own, scalar-only leakage model."""

    def leakage_energy(self, frame_time):
        if frame_time <= 0:
            raise ConfigurationError("frame time must be positive")
        return 2.0 * self.leakage_power * frame_time


def _fig5_variant(adc_factory, line_buffer_type=LineBuffer):
    """A builder of the Fig. 5 design with its column ADC or its line
    buffer class swapped for a custom energy model."""
    def build():
        system = SensorSystem("Fig5", layers=[Layer(SENSOR_LAYER, 65)])
        pixel_array = AnalogArray("PixelArray", num_input=(1, 32),
                                  num_output=(1, 16))
        pixel_array.add_component(
            ActivePixelSensor("BinningPixel", num_shared_pixels=4), (16, 16))
        adc_array = AnalogArray("ADCArray", num_input=(1, 16),
                                num_output=(1, 16))
        adc_array.add_component(adc_factory(), (1, 16))
        line_buffer = line_buffer_type(
            "LineBuffer", size=(3, 16), write_energy_per_word=0.3 * units.pJ,
            read_energy_per_word=0.3 * units.pJ,
            leakage_power=1.0 * units.uW)
        edge_unit = ComputeUnit("EdgeUnit", input_pixels_per_cycle=(1, 3, 1),
                                output_pixels_per_cycle=(1, 1, 1),
                                energy_per_cycle=3.0 * units.pJ,
                                num_stages=2)
        pixel_array.set_output(adc_array)
        adc_array.set_output(line_buffer)
        edge_unit.set_input(line_buffer)
        edge_unit.set_sink()
        system.add_analog_array(pixel_array)
        system.add_analog_array(adc_array)
        system.add_memory(line_buffer)
        system.add_compute_unit(edge_unit)
        system.set_pixel_array_geometry(32, 32)
        return Design(build_fig5_stages(), system, dict(FIG5_MAPPING),
                      name="Fig5")
    return build


class TestEquivalence:
    """Vector output is indistinguishable from the object path."""

    @pytest.mark.parametrize("usecase", sorted(_DESIGN_AXES))
    def test_sampled_designs_match_exactly(self, usecase):
        rng = random.Random(f"vector-{usecase}")
        space = _sampled_space(usecase, rng, count=100)
        document_object, document_vector, engines = _documents(
            space, usecase,
            objectives=("energy_per_frame", "power_density", "latency"))
        assert engines["vectorized"] == len(space)
        assert engines["fallback"] == 0
        assert json.dumps(document_vector, sort_keys=True) \
            == json.dumps(document_object, sort_keys=True)

    @pytest.mark.parametrize("usecase", sorted(_DESIGN_AXES))
    def test_every_builtin_metric_matches_exactly(self, usecase):
        # Every placement too: stacked designs take the per-layer
        # maximum power density, and each category's share shows up.
        space = grid(**{"options.frame_rate":
                        [9.0, 15.0, 30.0, 60.0, 120.0, 240.0, 2.0e6]},
                     **_DESIGN_AXES[usecase])
        document_object, document_vector, engines = _documents(
            space, usecase, objectives=tuple(available_metrics()))
        assert engines["vectorized"] == len(space)
        assert json.dumps(document_vector, sort_keys=True) \
            == json.dumps(document_object, sort_keys=True)

    def test_non_finite_frame_rates_match_exactly(self):
        space = choice("options.frame_rate", [30.0, math.nan, math.inf, 60.0])
        document_object, document_vector, _ = _documents(
            space, "edgaze",
            objectives=("energy_per_frame", "power_density", "latency"))
        assert json.dumps(document_vector, sort_keys=True) \
            == json.dumps(document_object, sort_keys=True)
        failures = [point["failure"] for point in document_object["points"]]
        assert [failure and failure["type"] for failure in failures] \
            == [None, "ConfigurationError", "ConfigurationError", None]

    def test_exposure_slots_axis_matches_exactly(self):
        space = grid(**{"options.frame_rate": [30.0, 60.0],
                        "options.exposure_slots": [1, 2, 4]})
        document_object, document_vector, engines = _documents(
            space, "fig5", objectives=("energy_per_frame", "frame_slack"))
        assert engines["vectorized"] == len(space)
        assert document_vector == document_object


class TestRouting:
    """Which points the auto engine routes where, and the counters."""

    def test_auto_vectorizes_groups_at_threshold(self):
        rates = [float(15 + 5 * step) for step in range(VECTOR_MIN_POINTS)]
        result = explore(grid(**{"options.frame_rate": rates}), "fig5",
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": len(rates), "fallback": 0}

    def test_auto_leaves_small_groups_on_object_path(self):
        rates = [float(15 + 5 * step)
                 for step in range(VECTOR_MIN_POINTS - 1)]
        result = explore(grid(**{"options.frame_rate": rates}), "fig5",
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": 0, "fallback": len(rates)}

    def test_object_engine_routes_nothing(self):
        result = explore(
            grid(**{"options.frame_rate": [15.0, 30.0, 60.0, 120.0]}),
            "fig5", objectives=("energy_per_frame",), engine="object")
        assert result.engines == dict.fromkeys(ENGINE_COUNTERS, 0)

    def test_mixed_group_sizes_split_between_engines(self):
        # 5 points on one design, 2 on another: the big group vectorizes
        # under auto, the small one falls back — in one exploration.
        rates = [20.0, 30.0, 40.0, 50.0, 60.0, 30.0, 60.0]
        nodes = [65, 65, 65, 65, 65, 130, 130]
        space = zipped(choice("options.frame_rate", rates),
                       choice("cis_node", nodes))
        result = explore(space, "edgaze_mixed",
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": 5, "fallback": 2}
        assert len(result.feasible_points) == len(rates)

    @pytest.mark.parametrize("builder", [
        _fig5_variant(SingleSlopeADC),
        _fig5_variant(lambda: ColumnADC(bits=10),
                      line_buffer_type=_LeakyLineBuffer),
    ], ids=["single-slope-adc", "leakage-override"])
    def test_custom_energy_models_fall_back(self, builder):
        space = grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0, 60.0]})
        objectives = ("energy_per_frame", "power_density", "latency")
        auto = explore(space, builder, objectives=objectives)
        assert auto.engines == {"vectorized": 0, "fallback": len(space)}
        assert len(auto.feasible_points) == len(space)
        document_auto = auto.to_dict()
        document_object = explore(space, builder, objectives=objectives,
                                  engine="object").to_dict()
        document_auto.pop("engines")
        document_object.pop("engines")
        assert json.dumps(document_auto, sort_keys=True) \
            == json.dumps(document_object, sort_keys=True)

    def test_cycle_accurate_points_fall_back(self):
        space = grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0],
                        "options.cycle_accurate": [False, True]})
        result = explore(space, "fig5", objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": 4, "fallback": 4}

    def test_vector_engine_takes_singleton_groups(self):
        result = explore(grid(**{"options.frame_rate": [33.0]}), "fig5",
                         objectives=("energy_per_frame",), engine="vector")
        assert result.engines == {"vectorized": 1, "fallback": 0}

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ConfigurationError, match="engine must be one"):
            explore(grid(**{"options.frame_rate": [30.0]}), "fig5",
                    objectives=("energy_per_frame",), engine="simd")

    def test_custom_metric_without_vector_falls_back_under_auto(self):
        name = "test-vector-scalar-only"
        register_metric(Metric(
            name, unit="J",
            extract=lambda design, report: report.total_energy))
        try:
            result = explore(
                grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0]}),
                "fig5", objectives=(name,))
            assert result.engines == {"vectorized": 0, "fallback": 4}
            # The object path carries full reports, which scalar-only
            # metrics (and their callers) may rely on.
            assert all(point.report is not None
                       for point in result.feasible_points)
        finally:
            _REGISTRY.pop(name, None)

    def test_vector_engine_rejects_scalar_only_metrics(self):
        name = "test-vector-scalar-only"
        register_metric(Metric(
            name, unit="J",
            extract=lambda design, report: report.total_energy))
        try:
            support_error = vector_support_error(
                [_REGISTRY[name], _REGISTRY["latency"]])
            assert name in support_error
            with pytest.raises(ConfigurationError,
                               match="engine 'vector' is unavailable"):
                explore(grid(**{"options.frame_rate": [30.0]}), "fig5",
                        objectives=(name,), engine="vector")
        finally:
            _REGISTRY.pop(name, None)


class TestCacheIntegration:
    """Vector results land in the same two-tier result cache."""

    _RATES = [21.0, 34.0, 55.0, 89.0, 3.0e6]

    def _space(self):
        return grid(**{"options.frame_rate": self._RATES})

    def test_object_rerun_is_served_from_vector_run(self):
        simulator = Simulator()
        cold = explore(self._space(), "edgaze",
                       objectives=("energy_per_frame", "latency"),
                       simulator=simulator, engine="vector")
        assert simulator.cache_info().hits == 0
        warm = explore(self._space(), "edgaze",
                       objectives=("energy_per_frame", "latency"),
                       simulator=simulator, engine="object")
        info = simulator.cache_info()
        assert info.hits == len(self._RATES)
        assert info.misses == len(self._RATES)
        document_cold = cold.to_dict()
        document_warm = warm.to_dict()
        document_cold.pop("engines")
        document_warm.pop("engines")
        assert document_warm == document_cold

    def test_vector_rerun_probes_the_cache(self):
        simulator = Simulator()
        for _ in range(2):
            result = explore(self._space(), "edgaze",
                             objectives=("energy_per_frame",),
                             simulator=simulator, engine="vector")
        assert simulator.cache_info().hits == len(self._RATES)
        assert result.engines["vectorized"] == len(self._RATES)

    def test_clear_cache_drops_pending_backfill(self):
        simulator = Simulator()
        explore(self._space(), "edgaze",
                objectives=("energy_per_frame",),
                simulator=simulator, engine="vector")
        simulator.clear_cache()
        explore(self._space(), "edgaze",
                objectives=("energy_per_frame",),
                simulator=simulator, engine="vector")
        assert simulator.cache_info().hits == 0


class TestSerialization:
    """Engine tallies in documents and specs, with old-document defaults."""

    def _result(self):
        return explore(
            grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0]}),
            "fig5", objectives=("energy_per_frame",))

    def test_engines_round_trip(self):
        result = self._result()
        document = result.to_dict()
        assert document["engines"] == {"vectorized": 4, "fallback": 0}
        restored = ExplorationResult.from_dict(document)
        assert restored.engines == result.engines
        assert restored.to_dict() == document

    def test_old_documents_default_to_zero_counters(self):
        document = self._result().to_dict()
        del document["engines"]
        restored = ExplorationResult.from_dict(document)
        assert restored.engines == dict.fromkeys(ENGINE_COUNTERS, 0)

    def test_spec_engine_round_trips(self):
        payload = {
            "schema": "repro.explore-spec/1",
            "usecase": "fig5",
            "space": {"name": "options.frame_rate", "values": [30.0]},
            "engine": "vector",
        }
        spec = exploration_spec_from_dict(payload)
        assert spec.engine == "vector"
        assert spec.to_dict()["engine"] == "vector"
        # The default engine stays out of the serialized form.
        default = exploration_spec_from_dict(
            {key: value for key, value in payload.items()
             if key != "engine"})
        assert default.engine == "auto"
        assert "engine" not in default.to_dict()

    def test_spec_rejects_unknown_engine(self):
        with pytest.raises(SerializationError, match="spec engine"):
            ExplorationSpec(
                usecase="fig5",
                space=grid(**{"options.frame_rate": [30.0]}),
                engine="simd")


class TestServeIntegration:
    """The daemon runs vector explorations and reports engine totals."""

    def test_stats_surface_engine_totals(self):
        from repro.serve import BackgroundServer

        spec = {
            "schema": "repro.explore-spec/1",
            "usecase": "fig5",
            "space": {"name": "options.frame_rate",
                      "values": [18.0, 27.0, 36.0, 45.0, 54.0, 63.0]},
            "objectives": ["energy_per_frame", "latency"],
            "engine": "vector",
        }
        with BackgroundServer(workers=1, chunk_size=8) as background:
            client = background.client()
            job = client.submit(spec)
            done = client.wait(job["id"], timeout=120.0)
            assert done["state"] == "done"
            document = client.result(job["id"])["result"]
            assert document["engines"] == {"vectorized": 6, "fallback": 0}
            stats = client.stats()
            assert stats["engines"]["vectorized"] >= 6
            assert set(stats["engines"]) == set(ENGINE_COUNTERS)
