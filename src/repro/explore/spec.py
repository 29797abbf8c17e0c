"""Exploration spec files: a whole design-space study as one JSON object.

``python -m repro explore <spec.json>`` executes these.  A spec names a
registered use-case builder, declares the space to sweep, and picks the
objectives::

    {
      "schema": "repro.explore-spec/1",
      "usecase": "edgaze",
      "space": {"product": [
        {"name": "placement", "values": ["2D-In", "2D-Off", "3D-In"]},
        {"name": "cis_node", "values": [130, 65]}
      ]},
      "objectives": ["energy_per_frame", "power_density", "latency"],
      "options": {"frame_rate": 30.0}
    }

``schema``, ``objectives``, ``options``, and ``name`` are optional;
axes named ``options.<field>`` sweep simulation options instead of
builder parameters.  The result serializes under ``repro.explore/1``
(see :class:`~repro.explore.engine.ExplorationResult`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.result import SimOptions
from repro.api.simulator import Simulator
from repro.exceptions import SerializationError
from repro.explore.engine import (DEFAULT_OBJECTIVES, ENGINE_CHOICES,
                                  ExplorationResult, explore)
from repro.explore.space import ParameterSpace, space_from_dict

#: Schema tag of an exploration spec file.
EXPLORATION_SPEC_SCHEMA = "repro.explore-spec/1"


@dataclass(frozen=True)
class ExplorationSpec:
    """A parsed exploration spec, ready to run."""

    usecase: str
    space: ParameterSpace
    objectives: List[str] = field(
        default_factory=lambda: list(DEFAULT_OBJECTIVES))
    options: SimOptions = field(default_factory=SimOptions)
    name: Optional[str] = None
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_CHOICES:
            raise SerializationError(
                f"spec engine must be one of {ENGINE_CHOICES}, "
                f"got {self.engine!r}")

    def run(self, simulator: Optional[Simulator] = None
            ) -> ExplorationResult:
        """Execute the spec through the exploration engine."""
        return explore(self.space, self.usecase,
                       objectives=self.objectives, options=self.options,
                       simulator=simulator, name=self.name,
                       engine=self.engine)

    def to_dict(self) -> Dict[str, Any]:
        """The spec back as its JSON form."""
        payload: Dict[str, Any] = {
            "schema": EXPLORATION_SPEC_SCHEMA,
            "usecase": self.usecase,
            "space": self.space.to_dict(),
            "objectives": list(self.objectives),
            "options": self.options.to_dict(),
        }
        if self.name is not None:
            payload["name"] = self.name
        if self.engine != "auto":
            payload["engine"] = self.engine
        return payload


def exploration_spec_from_dict(payload: Dict[str, Any]) -> ExplorationSpec:
    """Parse a spec payload (inverse of :meth:`ExplorationSpec.to_dict`)."""
    if not isinstance(payload, dict):
        raise SerializationError(
            f"exploration spec must be an object, "
            f"got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema is not None and schema != EXPLORATION_SPEC_SCHEMA:
        raise SerializationError(
            f"expected schema {EXPLORATION_SPEC_SCHEMA!r}, got {schema!r}")
    unknown = set(payload) - {"schema", "usecase", "space", "objectives",
                              "options", "name", "engine"}
    if unknown:
        raise SerializationError(
            f"unknown exploration spec keys: {sorted(unknown)}")
    if "usecase" not in payload:
        raise SerializationError("exploration spec needs a 'usecase'")
    if not isinstance(payload["usecase"], str):
        raise SerializationError(
            f"'usecase' must be a usecase name, got "
            f"{type(payload['usecase']).__name__}")
    if "space" not in payload:
        raise SerializationError("exploration spec needs a 'space'")
    objectives = payload.get("objectives", list(DEFAULT_OBJECTIVES))
    if not isinstance(objectives, list) or not objectives \
            or not all(isinstance(item, str) for item in objectives):
        raise SerializationError(
            "'objectives' must be a non-empty list of metric names")
    return ExplorationSpec(
        usecase=payload["usecase"],
        space=space_from_dict(payload["space"]),
        objectives=list(objectives),
        options=SimOptions.from_dict(payload.get("options", {})),
        name=payload.get("name"),
        engine=payload.get("engine", "auto"))


def load_exploration_spec(path) -> ExplorationSpec:
    """Read an exploration spec file written as JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"spec file {path} is not valid JSON: {error}") from error
    return exploration_spec_from_dict(payload)
