"""Causal geometry checks for an experiment's event schedule.

Units are meters and nanoseconds (c = 0.299792458 m/ns).  A schedule
holds labelled events plus "media": named signal links, each with a
physical path length and a propagation speed as a fraction of c.  Path
lengths are explicit because a fiber is generally longer than the
straight-line distance between its endpoints.  `Schedule.from_json_file`
parses a schedule file with `scenario.load_json` and `read_section`.

The bundled `reference_schedule` is a synthetic but feasible timing
assignment for the published geometry (stations 46 m apart, source
13 m from the preparer, fiber runs of 28 m and 33 m at 0.68 c); the
actual run's event times were never published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .scenario import load_json, read_section

C_M_PER_NS = 0.299792458

SPACE_LIKE = "space-like"
TIME_LIKE = "time-like"
LIGHT_LIKE = "light-like"

LIGHT_LIKE_REL_TOL = 1e-6

REQUIRED_EVENTS = (
    "pair_emission",
    "alice_choice",
    "alice_measurement",
    "bob_choice",
    "bob_measurement",
)

# Numerical slack (ns) for the arrival-time inequality.
_ARRIVAL_SLACK_NS = 1e-9


@dataclass(frozen=True)
class Event:
    label: str
    position: tuple[float, float, float]
    time: float

    def __post_init__(self):
        if len(self.position) != 3:
            raise ValueError(f"event {self.label!r} has {len(self.position)} coordinates, not 3")
        coords = (*self.position, self.time)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"event {self.label!r} has non-finite coordinates")


@dataclass(frozen=True)
class Link:
    """Signal path between two events: length in meters, speed in units of c."""

    source: str
    target: str
    speed: float
    length_m: float

    def __post_init__(self):
        if not 0.0 < self.speed <= 1.0:
            raise ValueError(f"link speed must be in (0, 1], got {self.speed}")
        # written so that NaN, which fails every comparison, is refused
        if not 0.0 <= self.length_m < math.inf:
            raise ValueError(f"link length must be finite and non-negative, got {self.length_m}")

    def transit_ns(self) -> float:
        return self.length_m / (self.speed * C_M_PER_NS)


@dataclass(frozen=True)
class Schedule:
    events: dict[str, Event]
    media: dict[str, Link]

    def __post_init__(self):
        missing = [label for label in REQUIRED_EVENTS if label not in self.events]
        if missing:
            raise ValueError(f"schedule is missing required events: {missing}")
        for name, link in self.media.items():
            for endpoint in (link.source, link.target):
                if endpoint not in self.events:
                    raise ValueError(f"link {name!r} references unknown event {endpoint!r}")

    def to_json_dict(self) -> dict:
        return {
            "events": [
                {"label": e.label, "position_m": list(e.position), "time_ns": e.time}
                for e in self.events.values()
            ],
            "media": {
                name: {
                    "from": link.source,
                    "to": link.target,
                    "speed_c": link.speed,
                    "length_m": link.length_m,
                }
                for name, link in self.media.items()
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Schedule":
        kw = read_section(d, _SCHEDULE_KEYS, "schedule", tuple(_SCHEDULE_KEYS))
        events = {}
        for n, entry in enumerate(kw["events"]):
            e = read_section(entry, _EVENT_KEYS, f"events[{n}]", tuple(_EVENT_KEYS))
            if e["label"] in events:
                raise ValueError(f"schedule has more than one event labelled {e['label']!r}")
            events[e["label"]] = Event(e["label"], e["position_m"], e["time_ns"])
        media = {}
        for name, entry in kw["media"].items():
            m = read_section(entry, _LINK_KEYS, f"media {name!r}", tuple(_LINK_KEYS))
            media[name] = Link(m["from"], m["to"], m["speed_c"], m["length_m"])
        return cls(events=events, media=media)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Schedule":
        return cls.from_json_dict(load_json(path))


_SCHEDULE_KEYS = {"events": list, "media": dict}
_EVENT_KEYS = {"label": str, "position_m": tuple, "time_ns": float}
_LINK_KEYS = {"from": str, "to": str, "speed_c": float, "length_m": float}


def interval(a: Event, b: Event) -> str:
    """Classify the Minkowski interval between two events."""
    dt = (b.time - a.time) * C_M_PER_NS
    dx = math.dist(a.position, b.position)
    # one power-of-two scale for both is exact and puts the larger in [0.5, 1), so its
    # square neither overflows nor underflows
    exponent = math.frexp(max(abs(dt), dx))[1]
    dt, dx = math.ldexp(dt, -exponent), math.ldexp(dx, -exponent)
    s2 = dt * dt - dx * dx
    scale = dt * dt + dx * dx
    if abs(s2) <= LIGHT_LIKE_REL_TOL * scale:
        return LIGHT_LIKE
    return TIME_LIKE if s2 > 0.0 else SPACE_LIKE


@dataclass(frozen=True)
class ConditionResult:
    name: str
    description: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __getitem__(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        conditions = [
            {"name": c.name, "description": c.description, "passed": c.passed, "detail": c.detail}
            for c in self.conditions
        ]
        return {"all_passed": self.all_passed, "conditions": conditions}


_DESCRIPTIONS = {
    "C1": "measurer's choice space-like from preparer's choice and measurement",
    "C2": "the two measurements are space-like separated",
    "C3": "both setting choices space-like from the pair emission",
    "C4": "preparer's setting choice precedes measurer's setting choice",
    "C5": "no measurement precedes its photon's earliest arrival",
}


def validate(s: Schedule) -> ValidationReport:
    """Check the causal-structure conditions of the schedule.

    C1  the measurement-setting choice at the measuring station is
        space-like separated from both the preparer's choice and the
        preparer's measurement;
    C2  the two station measurements are space-like separated;
    C3  both setting choices are space-like separated from the pair
        emission;
    C4  lab-frame delayed-choice ordering: the preparer's setting
        choice precedes the measuring station's setting choice;
    C5  no measurement fires before its photon can have arrived
        through its link.

    Each condition is a list of (passed, detail) checks; it passes when all of
    them do, and its detail joins theirs.
    """
    events = s.events

    def space_like(a: str, b: str) -> tuple[bool, str]:
        kind = interval(events[a], events[b])
        return kind == SPACE_LIKE, f"{a} vs {b}: {kind}"

    def arrives(name: str, link: Link) -> tuple[bool, str]:
        arrival = events[link.source].time + link.transit_ns()
        actual = events[link.target].time
        detail = f"{name}: {link.target} at {actual} ns vs earliest arrival {arrival:.3f} ns"
        return actual >= arrival - _ARRIVAL_SLACK_NS, detail

    t_ac, t_bc = events["alice_choice"].time, events["bob_choice"].time
    checks = {
        "C1": [space_like("bob_choice", "alice_choice"),
               space_like("bob_choice", "alice_measurement")],
        "C2": [space_like("alice_measurement", "bob_measurement")],
        "C3": [space_like("alice_choice", "pair_emission"),
               space_like("bob_choice", "pair_emission")],
        "C4": [(t_ac < t_bc, f"alice_choice at {t_ac} ns, bob_choice at {t_bc} ns")],
        "C5": [arrives(name, link) for name, link in s.media.items()],
    }
    return ValidationReport(conditions=tuple(
        ConditionResult(
            name=name,
            description=_DESCRIPTIONS[name],
            passed=all(ok for ok, _ in rows),
            detail="; ".join(detail for _, detail in rows) or "no links declared",
        )
        for name, rows in checks.items()
    ))


def reference_schedule() -> Schedule:
    """Synthetic feasible timing for the published station geometry."""
    alice = (0.0, 0.0, 0.0)
    bob = (46.0, 0.0, 0.0)
    charlie = (13.0, 0.0, 0.0)
    events = {
        "pair_emission": Event("pair_emission", charlie, 0.0),
        "alice_choice": Event("alice_choice", alice, 10.0),
        "bob_choice": Event("bob_choice", bob, 70.0),
        "alice_measurement": Event("alice_measurement", alice, 140.0),
        "bob_measurement": Event("bob_measurement", bob, 165.0),
    }
    media = {
        "charlie_alice": Link("pair_emission", "alice_measurement", 0.68, 28.0),
        "charlie_bob": Link("pair_emission", "bob_measurement", 0.68, 33.0),
    }
    return Schedule(events=events, media=media)
