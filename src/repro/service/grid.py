"""Scenario-grid planner: expand parameter axes into digest-grouped jobs.

A :class:`GridSpec` names one registered scenario plus *axes* of overrides
(``days``, ``scale``, ``seed``, or any ``params.<name>`` knob — blocking
windows, monitor fractions, censor coalitions, ...).  :func:`plan_grid`
takes their cartesian product, validates every combination through
:func:`repro.core.scenario.resolve_scenario` (so a bad axis fails at plan
time, not three jobs into a run), and asks the scenario layer which
exposure-cache digest each job will resolve through
(:func:`repro.core.scenario.scenario_exposure_digest`).

The plan is a DAG in the only shape the exposure plane needs: jobs are
grouped by digest and ordered group-by-group, so the first job of a group
builds the ``SharedExposure`` once and every sibling streams from the
in-process LRU or the on-disk bundle.  Jobs with no digest (message-level
kinds) each form their own singleton group.

Everything here is a pure value: specs and jobs round-trip through JSON
(``as_dict`` / ``from_dict``) because the queue persists them, and the
grid id is a content hash of the spec — replanning an identical grid is a
no-op, while editing any axis yields a fresh grid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.scenario import (
    ScenarioSpec,
    get_scenario,
    resolve_scenario,
    scenario_exposure_digest,
)

__all__ = [
    "GridAxis",
    "GridSpec",
    "GridJob",
    "GridPlan",
    "parse_axis",
    "plan_grid",
]

#: Axis keys that override run parameters rather than ``spec.params``.
_RUN_AXES = {"days": int, "scale": float, "seed": int}


def _normalize(value: object) -> object:
    """Canonical value form: JSON lists become tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    return value


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ":".join(_format_value(item) for item in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _parse_scalar(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_axis(text: str) -> "GridAxis":
    """Parse one ``--axis KEY=V1,V2,...`` argument.

    Commas separate axis points; colons build tuple-valued points (e.g.
    ``params.fractions=0.2:0.5,0.3:0.9`` is a two-point axis of fraction
    *pairs*).  Numeric tokens become ints/floats, everything else stays a
    string.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ValueError(f"axis must look like KEY=V1,V2,... (got {text!r})")
    values: List[object] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            values.append(tuple(_parse_scalar(part) for part in token.split(":")))
        else:
            values.append(_parse_scalar(token))
    if not values:
        raise ValueError(f"axis {key!r} needs at least one value")
    return GridAxis(key=key, values=tuple(values))


@dataclass(frozen=True)
class GridAxis:
    """One sweep dimension: a key and the values it takes."""

    key: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.key!r} needs at least one value")
        if self.key not in _RUN_AXES and not self.key.startswith("params."):
            raise ValueError(
                f"unknown axis key {self.key!r}: use days, scale, seed, "
                f"or params.<name>"
            )
        object.__setattr__(self, "values", tuple(_normalize(v) for v in self.values))

    def as_dict(self) -> Dict[str, object]:
        return {"key": self.key, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GridAxis":
        return cls(key=str(data["key"]), values=tuple(data["values"]))  # type: ignore[arg-type]


@dataclass(frozen=True)
class GridSpec:
    """A declarative grid: one registered scenario x axes of overrides."""

    scenario: str
    axes: Tuple[GridAxis, ...] = ()
    scale: float = 1.0
    seed: int = 2018
    days: Optional[int] = None
    retry_budget: int = 3

    def __post_init__(self) -> None:
        if self.retry_budget < 1:
            raise ValueError("retry budget must be at least 1")
        seen = set()
        for axis in self.axes:
            if axis.key in seen:
                raise ValueError(f"axis {axis.key!r} given twice")
            seen.add(axis.key)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "axes": [axis.as_dict() for axis in self.axes],
            "scale": self.scale,
            "seed": self.seed,
            "days": self.days,
            "retry_budget": self.retry_budget,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GridSpec":
        return cls(
            scenario=str(data["scenario"]),
            axes=tuple(GridAxis.from_dict(axis) for axis in data["axes"]),  # type: ignore[union-attr]
            scale=float(data["scale"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            days=None if data.get("days") is None else int(data["days"]),  # type: ignore[arg-type]
            retry_budget=int(data.get("retry_budget", 3)),  # type: ignore[arg-type]
        )

    @property
    def grid_id(self) -> str:
        """Content-addressed id: identical specs plan identical grids."""
        canonical = json.dumps(self.as_dict(), sort_keys=True, default=str)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]
        return f"{self.scenario}-{digest}"


@dataclass(frozen=True)
class GridJob:
    """One concrete cell of the grid, ready to execute and to persist."""

    name: str
    scenario: str
    scale: float
    seed: int
    days: Optional[int]
    params: Tuple[Tuple[str, object], ...] = ()
    digest: Optional[str] = None

    def resolved_spec(self) -> ScenarioSpec:
        """The validated :class:`ScenarioSpec` this job executes."""
        spec = get_scenario(self.scenario)
        if self.params:
            spec = replace(
                spec, params={**dict(spec.params), **dict(self.params)}
            )
        return resolve_scenario(spec, days=self.days, scale=self.scale)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "days": self.days,
            "params": [[key, value] for key, value in self.params],
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GridJob":
        return cls(
            name=str(data["name"]),
            scenario=str(data["scenario"]),
            scale=float(data["scale"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            days=None if data.get("days") is None else int(data["days"]),  # type: ignore[arg-type]
            params=tuple(
                (str(key), _normalize(value)) for key, value in data.get("params", ())  # type: ignore[union-attr]
            ),
            digest=None if data.get("digest") is None else str(data["digest"]),
        )


@dataclass
class GridPlan:
    """The planned DAG: jobs in execution order, grouped by digest."""

    spec: GridSpec
    jobs: List[GridJob] = field(default_factory=list)
    #: (digest or None, jobs) in first-seen order; ``jobs`` is their
    #: concatenation, so the queue executes one digest group at a time.
    groups: List[Tuple[Optional[str], List[GridJob]]] = field(default_factory=list)

    @property
    def grid_id(self) -> str:
        return self.spec.grid_id

    @property
    def shared_digests(self) -> List[str]:
        """Digests shared by 2+ jobs — the builds the grid amortises."""
        return [
            digest
            for digest, jobs in self.groups
            if digest is not None and len(jobs) >= 2
        ]


def plan_grid(spec: GridSpec) -> GridPlan:
    """Expand a :class:`GridSpec` into a digest-grouped :class:`GridPlan`.

    Raises ``KeyError`` for an unknown scenario and ``ValueError`` for any
    combination the scenario layer rejects (bad axis key, days override on
    a dayless kind, invalid parameter values caught at resolve time) —
    the same error contract as ``resolve_scenario``, so the CLI maps both
    to one-line exit-2 usage errors.
    """
    get_scenario(spec.scenario)  # raises KeyError with the known-names list
    # No axes -> product() yields one empty combo: a single-job grid.
    combos = itertools.product(*(axis.values for axis in spec.axes))
    jobs: List[GridJob] = []
    names: Dict[str, None] = {}
    for combo in combos:
        days = spec.days
        scale = spec.scale
        seed = spec.seed
        params: Dict[str, object] = {}
        labels: List[str] = []
        for axis, value in zip(spec.axes, combo):
            labels.append(f"{axis.key}={_format_value(value)}")
            if axis.key in _RUN_AXES:
                try:
                    value = _RUN_AXES[axis.key](value)  # type: ignore[operator]
                except (TypeError, ValueError):
                    raise ValueError(
                        f"axis {axis.key!r} needs "
                        f"{_RUN_AXES[axis.key].__name__} values "
                        f"(got {value!r})"
                    ) from None
                if axis.key == "days":
                    days = value  # type: ignore[assignment]
                elif axis.key == "scale":
                    scale = value  # type: ignore[assignment]
                else:
                    seed = value  # type: ignore[assignment]
            else:
                params[axis.key[len("params."):]] = value
        name = ",".join(labels) if labels else "base"
        if name in names:
            raise ValueError(f"duplicate grid cell {name!r} (repeated axis value?)")
        names[name] = None
        job = GridJob(
            name=name,
            scenario=spec.scenario,
            scale=scale,
            seed=seed,
            days=days,
            params=tuple(sorted(params.items())),
        )
        # Plan-time validation: a cell the engine would reject must fail
        # here, before anything is enqueued.
        resolved = job.resolved_spec()
        digest = scenario_exposure_digest(resolved, scale=scale, seed=seed)
        jobs.append(replace(job, digest=digest))

    grouped: Dict[object, List[GridJob]] = {}
    order: List[object] = []
    for job in jobs:
        # Digest-less (message-level) jobs stay singleton groups: there is
        # no exposure to share, so nothing constrains their placement.
        key: object = job.digest if job.digest is not None else ("solo", job.name)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(job)
    groups: List[Tuple[Optional[str], List[GridJob]]] = [
        (key if isinstance(key, str) else None, grouped[key]) for key in order
    ]
    ordered_jobs = [job for _, group in groups for job in group]
    return GridPlan(spec=spec, jobs=ordered_jobs, groups=groups)
