"""Robustness spec files: one JSON object describing a whole study.

``python -m repro robust <spec.json>`` executes these, and the serve
daemon accepts them as journaled ``robust`` jobs.  A spec picks the
study ``kind``, the design under test (a registered use case with
params, or an inline ``repro.design/1`` payload), and the variation
model or corner set::

    {
      "schema": "repro.robust-spec/1",
      "kind": "monte_carlo",
      "usecase": "edgaze",
      "params": {"placement": "2D-In", "cis_node": 65},
      "variation": {"sigma": {"memory.leakage_power": 0.1}},
      "samples": 256,
      "seed": 1,
      "metrics": ["energy_per_frame", "latency"]
    }

``kind: "explore"`` additionally takes a ``space`` (and optional
``objectives``/``statistic``/``engine``) and runs
:func:`~repro.robust.explore.explore_robust` over it.  Ensemble kinds
serialize their result as a ``repro.robust/1`` document directly;
explore wraps the ``repro.explore/1`` document in a thin robust
envelope recording the variation, seed, and statistic used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.api.design import Design
from repro.api.registry import build_usecase
from repro.api.result import SimOptions
from repro.api.simulator import Simulator
from repro.exceptions import SerializationError
from repro.explore.engine import DEFAULT_OBJECTIVES, ENGINE_CHOICES
from repro.explore.space import ParameterSpace, space_from_dict
from repro.robust.ensemble import (DEFAULT_METRICS, ROBUST_SCHEMA,
                                   RobustResult, corners, monte_carlo,
                                   sensitivity, worst_case)
from repro.robust.explore import explore_robust, resolve_statistics
from repro.robust.variation import Corner, VariationModel, corner_set
from repro.explore.metrics import resolve_metrics

#: Schema tag of a robustness spec file.
ROBUST_SPEC_SCHEMA = "repro.robust-spec/1"

#: Study kinds a spec may request.
ROBUST_KINDS = ("monte_carlo", "corners", "sensitivity", "worst_case",
                "explore")

#: Kinds that require a variation model.
_VARIATION_KINDS = ("monte_carlo", "sensitivity", "worst_case", "explore")

_SPEC_KEYS = {"schema", "kind", "usecase", "params", "design", "variation",
              "corners", "samples", "seed", "delta", "metrics", "options",
              "name", "space", "objectives", "statistic", "engine"}

ProgressHook = Callable[[int, int, int], None]


@dataclass(frozen=True)
class RobustSpec:
    """A parsed robustness spec, ready to run."""

    kind: str
    usecase: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    design: Optional[Dict[str, Any]] = None
    variation: Optional[VariationModel] = None
    corners: Union[str, List[Corner], None] = None
    samples: int = 64
    seed: int = 0
    delta: float = 1.0
    metrics: List[str] = field(
        default_factory=lambda: list(DEFAULT_METRICS))
    options: SimOptions = field(default_factory=SimOptions)
    name: Optional[str] = None
    space: Optional[ParameterSpace] = None
    objectives: List[str] = field(
        default_factory=lambda: list(DEFAULT_OBJECTIVES))
    statistic: Union[str, Dict[str, str]] = "p95"
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in ROBUST_KINDS:
            raise SerializationError(
                f"robust spec kind must be one of {ROBUST_KINDS}, "
                f"got {self.kind!r}")
        if (self.usecase is None) == (self.design is None):
            raise SerializationError(
                "robust spec needs exactly one of 'usecase' or 'design'")
        if self.kind in _VARIATION_KINDS and self.variation is None:
            raise SerializationError(
                f"robust spec kind {self.kind!r} needs a 'variation'")
        if self.kind == "corners" and isinstance(self.corners, str):
            corner_set(self.corners)  # fail fast on unknown names
        if self.kind == "explore":
            if self.usecase is None:
                raise SerializationError(
                    "robust explore specs need a 'usecase'")
            if self.space is None:
                raise SerializationError(
                    "robust explore specs need a 'space'")
            if self.engine not in ENGINE_CHOICES:
                raise SerializationError(
                    f"spec engine must be one of {ENGINE_CHOICES}, "
                    f"got {self.engine!r}")
            resolve_statistics(self.statistic,
                               resolve_metrics(self.objectives))
        if self.samples < 0 or (self.kind == "monte_carlo"
                                and self.samples < 1):
            raise SerializationError(
                f"robust spec samples must be >= 1, got {self.samples}")

    # --- execution --------------------------------------------------------

    @property
    def display_name(self) -> str:
        if self.name is not None:
            return self.name
        if self.usecase is not None:
            return self.usecase
        return (self.design or {}).get("name", "design")

    def build_design(self) -> Design:
        """The design under test (built or decoded)."""
        if self.usecase is not None:
            return build_usecase(self.usecase, **self.params)
        return Design.from_dict(self.design)

    def run(self,
            simulator: Optional[Simulator] = None,
            chunk_size: Optional[int] = None,
            on_progress: Optional[ProgressHook] = None,
            should_stop: Optional[Callable[[], bool]] = None
            ) -> Union[RobustResult, "ExplorationResult"]:  # noqa: F821
        """Execute the study; ``on_progress(completed, total, hits)``."""
        if self.kind == "explore":
            hook = None
            if on_progress is not None:
                hook = (lambda points, completed, total, hits:
                        on_progress(completed, total, hits))
            return explore_robust(
                self.space, self.usecase, objectives=self.objectives,
                variation=self.variation, samples=self.samples,
                seed=self.seed, statistic=self.statistic,
                options=self.options, simulator=simulator,
                name=self.name, engine=self.engine,
                chunk_size=chunk_size, on_progress=hook,
                should_stop=should_stop)
        design = self.build_design()
        shared = dict(metrics=self.metrics, options=self.options,
                      simulator=simulator, name=self.name,
                      chunk_size=chunk_size, on_progress=on_progress,
                      should_stop=should_stop)
        if self.kind == "monte_carlo":
            return monte_carlo(design, self.variation,
                               samples=self.samples, seed=self.seed,
                               **shared)
        if self.kind == "corners":
            return corners(design, self.corners, **shared)
        if self.kind == "sensitivity":
            return sensitivity(design, self.variation, delta=self.delta,
                               **shared)
        return worst_case(design, self.variation, **shared)

    def run_document(self,
                     simulator: Optional[Simulator] = None,
                     chunk_size: Optional[int] = None,
                     on_progress: Optional[ProgressHook] = None,
                     should_stop: Optional[Callable[[], bool]] = None
                     ) -> Dict[str, Any]:
        """Execute and serialize as one ``repro.robust/1`` document."""
        result = self.run(simulator=simulator, chunk_size=chunk_size,
                          on_progress=on_progress, should_stop=should_stop)
        if isinstance(result, RobustResult):
            return result.to_dict()
        return {
            "schema": ROBUST_SCHEMA,
            "kind": "explore",
            "name": result.name,
            "variation": self.variation.to_dict(),
            "samples": self.samples,
            "seed": self.seed,
            "statistic": (dict(self.statistic)
                          if isinstance(self.statistic, dict)
                          else self.statistic),
            "result": result.to_dict(),
        }

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": ROBUST_SPEC_SCHEMA,
            "kind": self.kind,
            "options": self.options.to_dict(),
        }
        if self.usecase is not None:
            payload["usecase"] = self.usecase
            if self.params:
                payload["params"] = dict(self.params)
        if self.design is not None:
            payload["design"] = self.design
        if self.variation is not None:
            payload["variation"] = self.variation.to_dict()
        if self.corners is not None:
            payload["corners"] = (
                self.corners if isinstance(self.corners, str)
                else [corner.to_dict() for corner in self.corners])
        if self.kind in ("monte_carlo", "explore"):
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        if self.kind == "sensitivity":
            payload["delta"] = self.delta
        if self.kind == "explore":
            payload["space"] = self.space.to_dict()
            payload["objectives"] = list(self.objectives)
            payload["statistic"] = (dict(self.statistic)
                                    if isinstance(self.statistic, dict)
                                    else self.statistic)
            if self.engine != "auto":
                payload["engine"] = self.engine
        else:
            payload["metrics"] = list(self.metrics)
        if self.name is not None:
            payload["name"] = self.name
        return payload


def robust_spec_from_dict(payload: Mapping[str, Any]) -> RobustSpec:
    """Parse a spec payload (inverse of :meth:`RobustSpec.to_dict`)."""
    if not isinstance(payload, Mapping):
        raise SerializationError(
            f"robust spec must be an object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema is not None and schema != ROBUST_SPEC_SCHEMA:
        raise SerializationError(
            f"expected schema {ROBUST_SPEC_SCHEMA!r}, got {schema!r}")
    unknown = set(payload) - _SPEC_KEYS
    if unknown:
        raise SerializationError(
            f"unknown robust spec keys: {sorted(unknown)}")
    if "kind" not in payload:
        raise SerializationError("robust spec needs a 'kind'")
    variation = payload.get("variation")
    corners_in = payload.get("corners")
    if corners_in is not None and not isinstance(corners_in, str):
        if not isinstance(corners_in, list):
            raise SerializationError(
                "'corners' must be a set name or a list of corners")
        corners_in = [Corner.from_dict(raw) for raw in corners_in]
    metrics = payload.get("metrics", list(DEFAULT_METRICS))
    if not isinstance(metrics, list) or not metrics \
            or not all(isinstance(item, str) for item in metrics):
        raise SerializationError(
            "'metrics' must be a non-empty list of metric names")
    objectives = payload.get("objectives", list(DEFAULT_OBJECTIVES))
    if not isinstance(objectives, list) or not objectives \
            or not all(isinstance(item, str) for item in objectives):
        raise SerializationError(
            "'objectives' must be a non-empty list of metric names")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise SerializationError(
            f"'params' must be an object, got {type(params).__name__}")
    space = payload.get("space")
    return RobustSpec(
        kind=payload["kind"],
        usecase=payload.get("usecase"),
        params=dict(params),
        design=payload.get("design"),
        variation=(VariationModel.from_dict(variation)
                   if variation is not None else None),
        corners=corners_in,
        samples=payload.get("samples", 64),
        seed=payload.get("seed", 0),
        delta=payload.get("delta", 1.0),
        metrics=list(metrics),
        options=SimOptions.from_dict(payload.get("options", {})),
        name=payload.get("name"),
        space=(space_from_dict(space) if space is not None else None),
        objectives=list(objectives),
        statistic=payload.get("statistic", "p95"),
        engine=payload.get("engine", "auto"))


def load_robust_spec(path) -> RobustSpec:
    """Read a robustness spec file written as JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"spec file {path} is not valid JSON: {error}") from error
    return robust_spec_from_dict(payload)
