"""Structure-of-arrays batch evaluation: the explore fast path.

Exploration grids routinely sweep *numeric knobs* over one built design
— frame rates, exposure slots — producing groups of points that share a
stage graph, mapping, and hardware but differ only in
:class:`~repro.api.result.SimOptions`.  The object path simulates each
such point through the full engine; this module evaluates a whole group
at once:

1. a type screen checks that the design's arrays, components, cells
   and memories are the stock classes, whose energy models accept a
   per-point column as well as a float (:mod:`repro.columns`);
2. the design-only passes (timeline, analog usage, communication
   energy) run through the session's :class:`PassMemo` exactly like the
   engine would;
3. the engine's own frame timing and analog and digital energy models
   run once on per-point columns and fill one *column report*, an
   :class:`EnergyReport` whose frame rate, frame time, stage delay and
   option-dependent entry energies are columns;
4. each objective's own ``extract`` reads that report (metrics declare
   with ``vector=True`` that they accept one).

Equivalence contract: the timing, energy and metric formulas are the
scalar engine's own functions, and element-wise NumPy arithmetic rounds
exactly like float arithmetic, so vector-evaluated points are
*bit-identical* to object-path points — same metrics, same
infeasibility boundaries, same :class:`TimingError` messages (an
over-budget point takes its error from the scalar
:func:`estimate_frame_timing`) — which the property tests in
``tests/test_vector.py`` assert.  Designs with custom (subclassed)
arrays, components, cells, or memory leakage may hold scalar-only code;
the screen rejects them with :class:`~repro.exceptions.VectorUnsupported`
before any observable cache side effect, and the engine falls back to
:meth:`Simulator.run_many` for the group.

Cache semantics match the object path: every point probes the session
result cache first (hits are served as cached results, misses counted),
and vector-evaluated outcomes are offered back to the cache as lazy
thunks (:meth:`Simulator.offer_result`) that materialize a full
:class:`SimResult` only if the key is ever requested again.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.api.design import Design
from repro.api.result import SimOptions, SimResult
from repro.api.simulator import Simulator
from repro.energy.analog_model import analog_usage, usage_energy
from repro.energy.comm_model import communication_energy
from repro.energy.digital_model import digital_energy
from repro.energy.report import Category, EnergyEntry, EnergyReport
from repro.exceptions import CamJError, VectorUnsupported
from repro.explore.annotate import _HINTS, Bottleneck
from repro.explore.engine import ExplorationPoint, _evaluate_point
from repro.explore.metrics import Metric
from repro.hw.analog.array import AnalogArray
from repro.hw.analog.cells import DynamicCell, NonLinearCell, StaticCell
from repro.hw.analog.components import AnalogComponent
from repro.hw.digital.memory import DigitalMemory
from repro.resilience.policy import FailureClass, classify
from repro.sim.cycle_sim import simulate_digital
from repro.sim.delay import estimate_frame_timing, frame_timing
from repro.sim.simulator import _run_pass

#: Smallest same-design group the ``auto`` engine vectorizes.  Tiny
#: groups gain nothing over the object path (array setup
#: costs more than a handful of scalar runs), and below this bound the
#: object path's per-point reports stay attached — the behavior existing
#: small sweeps (and their tests) expect.  ``engine="vector"`` ignores
#: the bound and vectorizes any group it can.
VECTOR_MIN_POINTS = 4

#: The energy-model classes whose methods take per-point columns.
_STOCK_MODELS = (AnalogArray, AnalogComponent, DynamicCell, StaticCell,
                 NonLinearCell)


def vector_support_error(objectives: Sequence[Metric]) -> Optional[str]:
    """Why the vector path cannot serve these objectives; None if it can."""
    missing = sorted(objective.name for objective in objectives
                     if not objective.vector)
    if missing:
        return (f"objective(s) {missing} do not accept column reports; "
                f"register the metric with vector=True once its "
                f"extractor does, or use the object engine")
    return None


def _screen_stock_types(design: Design) -> None:
    """Raise :class:`VectorUnsupported` unless every energy model of the
    design is a stock class, which takes per-point columns.

    Pure over the design's *system* (no passes run, no cache touched),
    so eligibility is decided before the group produces any observable
    side effect.  Subclasses may override ``energy``,
    ``energy_per_access``, ``energy_breakdown`` or ``leakage_energy``
    with scalar-only code, hence the exact-type checks.
    """
    for memory in design.system.memories:
        if type(memory).leakage_energy is not DigitalMemory.leakage_energy:
            raise VectorUnsupported(
                f"memory {memory.name!r} overrides leakage_energy")
    for array in design.system.analog_arrays:
        _require_stock(array)
        if not array.components:
            raise VectorUnsupported(f"array {array.name!r} has no components")
        for component, _ in array.components:
            _require_stock(component)
            for usage in component.cell_usages:
                _require_stock(usage.cell)


def _require_stock(model) -> None:
    if type(model) not in _STOCK_MODELS:
        raise VectorUnsupported(
            f"{model!r} has custom type {type(model).__name__}")


def _dense(values, size: int):
    """A per-point column from a column or a design-constant value."""
    if isinstance(values, _np.ndarray):
        return values
    return _np.full(size, float(values))


def _fail(points: List[Optional[ExplorationPoint]], offers: List[tuple],
          group: List[Tuple[Dict[str, Any], SimOptions]], indices,
          design: Design, design_hash: Optional[str],
          error: CamJError) -> None:
    """Fail the group points at ``indices`` with ``error``, offering each
    outcome to the cache iff the object path would cache it."""
    cacheable = design_hash is not None \
        and classify(error) is FailureClass.PERMANENT
    design_name = design.name
    for i in indices:
        params, options = group[i]
        points[i] = ExplorationPoint(params=params, design_name=design_name,
                                     design_hash=design_hash,
                                     failure_type=type(error).__name__,
                                     failure=str(error))
        if cacheable:
            offers.append((
                (design_hash, options),
                partial(SimResult, design_name=design_name, options=options,
                        design_hash=design_hash, error=error)))


def _new_point(params: Dict[str, Any], metrics: Dict[str, float],
               design_name: str, design_hash: Optional[str],
               bottleneck: Optional[Bottleneck]) -> ExplorationPoint:
    """A feasible :class:`ExplorationPoint`, built without the frozen
    dataclass ``__init__`` (one ``object.__setattr__`` per field is the
    single largest per-point cost at 10k+ points).  Every field is set
    explicitly; equality, hashing, and serialization are unaffected."""
    point = object.__new__(ExplorationPoint)
    point.__dict__.update(params=params, metrics=metrics,
                          design_name=design_name, design_hash=design_hash,
                          failure_type=None, failure=None,
                          bottleneck=bottleneck, report=None)
    return point


def _new_bottleneck(name: str, category: Category, energy: float,
                    share: float, hint: str) -> Bottleneck:
    """A :class:`Bottleneck` built the same fast way as :func:`_new_point`."""
    bottleneck = object.__new__(Bottleneck)
    bottleneck.__dict__.update(name=name, category=category, energy=energy,
                               share=share, hint=hint)
    return bottleneck


def _vector_bottlenecks(report: EnergyReport,
                        size: int) -> List[Optional[Bottleneck]]:
    """Per-point top energy bottleneck of a column report, mirroring
    identify_bottlenecks.

    The scalar ranking sorts (name, category) component totals by
    energy, descending and stable, and takes the head — equivalent to
    the first maximum in entry-insertion order, which is what a
    column-stacked argmax yields.
    """
    total = _dense(report.total_energy, size)
    groups: "OrderedDict[Tuple[str, Category], Any]" = OrderedDict()
    for entry in report.entries:
        key = (entry.name, entry.category)
        groups[key] = groups.get(key, 0.0) + entry.energy
    if not groups:
        return [None] * size
    keys = list(groups)
    matrix = _np.vstack([_dense(groups[key], size) for key in keys])
    top = matrix.argmax(axis=0)
    top_energy = matrix[top, _np.arange(size)]
    share = _np.zeros(size)
    positive = total > 0.0
    _np.divide(top_energy, total, out=share, where=positive)
    top_list = top.tolist()
    energy_list = top_energy.tolist()
    share_list = share.tolist()
    # Pre-resolve per-component hints so the per-point loop never
    # hashes a Category enum.
    hinted = [key + (_HINTS[key[1]],) for key in keys]
    if positive.all():
        return [_new_bottleneck(hinted[top][0], hinted[top][1],
                                energy_list[i], share_list[i],
                                hinted[top][2])
                for i, top in enumerate(top_list)]
    positive_list = positive.tolist()
    out: List[Optional[Bottleneck]] = []
    for i in range(size):
        if not positive_list[i]:
            out.append(None)
            continue
        name, category, hint = hinted[top_list[i]]
        out.append(_new_bottleneck(name, category, energy_list[i],
                                   share_list[i], hint))
    return out


def evaluate_group(simulator: Simulator, design: Design,
                   group: List[Tuple[Dict[str, Any], SimOptions]],
                   objectives: Sequence[Metric],
                   annotate: bool) -> Tuple[List[ExplorationPoint], int]:
    """Evaluate one same-design group of points on the vector path.

    ``group`` holds ``(params, options)`` pairs.  Returns the points in
    group order plus the result-cache hit count.  Raises
    :class:`VectorUnsupported` — before any cache probe or pass runs —
    when the design has custom energy models; the caller falls back to
    the object path with no counters disturbed.
    """
    # Eligibility first: the screen inspects only the system, so an
    # unsupported design escapes here with zero observable side effects.
    _screen_stock_types(design)
    design_hash = simulator.design_key(design)

    points: List[Optional[ExplorationPoint]] = [None] * len(group)
    # Cache offers accumulate here and publish in one bulk call on
    # every exit path.
    offers: List[tuple] = []
    try:
        return _evaluate_columns(simulator, design, design_hash, group,
                                 objectives, annotate, points, offers)
    finally:
        # Offers are only ever accumulated under a non-None design
        # hash, so the whole group shares it.
        simulator.offer_results(offers, same_hash=design_hash)


def _evaluate_columns(simulator: Simulator, design: Design,
                      design_hash: Optional[str],
                      group: List[Tuple[Dict[str, Any], SimOptions]],
                      objectives: Sequence[Metric], annotate: bool,
                      points: List[Optional[ExplorationPoint]],
                      offers: List[tuple]
                      ) -> Tuple[List[ExplorationPoint], int]:
    hits = 0

    # Mirror the object path's order: run() probes the cache before it
    # executes anything, so cached points never touch checks or passes.
    # A design with nothing cached anywhere answers in one call, with
    # no per-key probing at all.
    if design_hash is not None \
            and simulator.design_probe_needed(design_hash, len(group)):
        keys = [(design_hash, options) for _, options in group]
        probed = simulator.probe_results(keys)
        pending: List[int] = []
        for i, hit in enumerate(probed):
            if hit is not None:
                hits += 1
                params, _ = group[i]
                points[i] = _evaluate_point(params, design, hit,
                                            objectives, annotate)
            else:
                pending.append(i)
        if not pending:
            return points, hits
    else:
        # Cold group (or unserializable design): every point is pending.
        pending = list(range(len(group)))

    # Pre-simulation checks, once per design, session-deduplicated —
    # exactly the engine's prelude.  A check failure fails every
    # checked point with the same typed error the object path reports.
    survivors = pending
    if any(not group[i][1].skip_checks for i in pending):
        try:
            simulator.ensure_design_checked(design, design_hash)
        except CamJError as error:
            survivors = [i for i in pending if group[i][1].skip_checks]
            _fail(points, offers, group,
                  [i for i in pending if not group[i][1].skip_checks],
                  design, design_hash, error)
            if not survivors:
                return points, hits

    # Design-only passes through the session memo: an interleaved or
    # subsequent object-path run of this design reuses these outputs
    # (and vice versa), and pass_info() accounts them identically.
    memo, counters = simulator.pass_context(design, design_hash)
    try:
        resolved = design.resolved_units
        timeline = _run_pass(
            "timeline", memo, counters,
            lambda: simulate_digital(design.graph, design.system,
                                     design.mapping, resolved=resolved))
        participating = _run_pass(
            "analog_usage", memo, counters,
            lambda: analog_usage(design.graph, design.system,
                                 design.mapping, resolved=resolved))
    except CamJError as error:
        _fail(points, offers, group, survivors, design, design_hash, error)
        return points, hits

    # Timing, once for the group through the engine's own formula.
    # SimOptions validates frame_rate > 0 and exposure_slots >= 1, so
    # only the frame budget can fail; an over-budget point takes the
    # scalar TimingError of its own options.
    digital_latency = timeline.total_latency
    members = group if len(survivors) == len(group) \
        else [group[i] for i in survivors]
    timing, over_budget = frame_timing(
        _np.array([options.frame_rate for _, options in members],
                  dtype=float),
        digital_latency, len(participating),
        _np.array([options.exposure_slots for _, options in members],
                  dtype=float))
    frame_rate = timing.frame_rate
    frame_time = timing.frame_time
    stage_delay = timing.analog_stage_delay
    feasible = survivors
    if over_budget.any():
        for position in _np.flatnonzero(over_budget).tolist():
            _, options = members[position]
            try:
                estimate_frame_timing(options.frame_rate, digital_latency,
                                      len(participating),
                                      options.exposure_slots)
            except CamJError as error:
                _fail(points, offers, group, [survivors[position]],
                      design, design_hash, error)
        # Compact to the feasible subset (exact element copies, so the
        # downstream arithmetic is unchanged).
        index = _np.flatnonzero(~over_budget)
        if not len(index):
            return points, hits
        feasible = [survivors[position] for position in index.tolist()]
        frame_rate = frame_rate[index]
        frame_time = frame_time[index]
        stage_delay = stage_delay[index]

    # The column report, with entries in the engine's order: analog,
    # digital, communication.
    report = EnergyReport(system_name=design.system.name,
                          frame_rate=frame_rate, frame_time=frame_time,
                          digital_latency=digital_latency,
                          analog_stage_delay=stage_delay)
    try:
        report.extend(usage_energy(participating, stage_delay))
        report.extend(digital_energy(design.system, timeline, frame_time))
        report.extend(_run_pass(
            "comm_energy", memo, counters,
            lambda: communication_energy(design.graph, design.system,
                                         design.mapping,
                                         resolved=resolved)))
    except CamJError as error:
        _fail(points, offers, group, feasible, design, design_hash, error)
        return points, hits

    # Metrics, column-wise, in objective order.  A failing metric is
    # design-wide here (per-point metric failures cannot arise from
    # column-capable extractors), so it fails every point of the report
    # with the object path's message.
    size = len(feasible)
    columns: List[List[float]] = []
    metric_error: Optional[CamJError] = None
    failed_objective: Optional[Metric] = None
    for objective in objectives:
        try:
            raw = objective.extract(design, report)
        except CamJError as error:
            metric_error = error
            failed_objective = objective
            break
        columns.append(_dense(raw, size).tolist())
    design_name = design.name
    if design_hash is not None:
        # Every simulation succeeded: the object path caches each result,
        # even when a metric then fails.
        offers.extend(
            ((design_hash, group[i][1]),
             partial(_materialize_report, design_name, design_hash,
                     group[i][1], report, column))
            for column, i in enumerate(feasible))
    if metric_error is not None:
        failure = f"metric {failed_objective.name!r}: {metric_error}"
        failure_type = type(metric_error).__name__
        for i in feasible:
            points[i] = ExplorationPoint(
                params=group[i][0], design_name=design_name,
                design_hash=design_hash,
                failure_type=failure_type, failure=failure)
        return points, hits

    bottlenecks: List[Optional[Bottleneck]] = [None] * size
    if annotate:
        bottlenecks = _vector_bottlenecks(report, size)

    metric_names = tuple(objective.name for objective in objectives)
    metric_rows = list(zip(*columns))
    for column, i in enumerate(feasible):
        points[i] = _new_point(group[i][0],
                               dict(zip(metric_names, metric_rows[column])),
                               design_name, design_hash,
                               bottlenecks[column])
    return points, hits


def _materialize_report(design_name: str, design_hash: str,
                        options: SimOptions, report: EnergyReport,
                        column: int) -> SimResult:
    """Rebuild one feasible point's full, bit-identical report from the
    column report.

    Bound into a cache offer via :func:`functools.partial`, so the cost
    per point stays one (C-level) partial until the key is ever probed
    again — most explore points never are.
    """
    point = EnergyReport(
        system_name=report.system_name, frame_rate=options.frame_rate,
        frame_time=float(report.frame_time[column]),
        digital_latency=report.digital_latency,
        analog_stage_delay=float(report.analog_stage_delay[column]))
    point.extend(EnergyEntry(
        name=entry.name, category=entry.category, layer=entry.layer,
        energy=(float(entry.energy[column])
                if isinstance(entry.energy, _np.ndarray)
                else entry.energy),
        stage=entry.stage) for entry in report.entries)
    return SimResult(design_name=design_name, options=options,
                     design_hash=design_hash, report=point)
