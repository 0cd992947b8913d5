import json
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pamsim.spacetime import (
    C_M_PER_NS,
    LIGHT_LIKE,
    LIGHT_LIKE_REL_TOL,
    SPACE_LIKE,
    TIME_LIKE,
    ConditionResult,
    Event,
    Link,
    Schedule,
    interval,
    reference_schedule,
    validate,
)

ORIGIN = Event("a", (0.0, 0.0, 0.0), 0.0)
MAX = sys.float_info.max

# zero, or either sign at any binary exponent from -520 to 520
MAGNITUDES = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
        st.sampled_from((-1.0, 1.0)),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(-520, 520),
    ),
)


def moved(schedule, label, dt_ns=0.0, position=None):
    events = dict(schedule.events)
    old = events[label]
    events[label] = Event(label, position or old.position, old.time + dt_ns)
    return Schedule(events, schedule.media)


class TestInterval:
    def test_simultaneous_separated_events(self):
        a = Event("a", (0.0, 0.0, 0.0), 0.0)
        b = Event("b", (46.0, 0.0, 0.0), 0.0)
        assert interval(a, b) == SPACE_LIKE

    def test_colocated_later_event(self):
        a = Event("a", (0.0, 0.0, 0.0), 0.0)
        b = Event("b", (0.0, 0.0, 0.0), 1.0)
        assert interval(a, b) == TIME_LIKE

    def test_light_cone_boundary(self):
        a = Event("a", (0.0, 0.0, 0.0), 0.0)
        b = Event("b", (46.0, 0.0, 0.0), 46.0 / C_M_PER_NS)
        assert interval(a, b) == LIGHT_LIKE

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = Event("a", tuple(rng.uniform(-50, 50, 3)), rng.uniform(-200, 200))
            b = Event("b", tuple(rng.uniform(-50, 50, 3)), rng.uniform(-200, 200))
            assert interval(a, b) == interval(b, a)

    def test_uniform_scaling_preserves_classification(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            pa = rng.uniform(-50, 50, 3)
            pb = rng.uniform(-50, 50, 3)
            ta, tb = rng.uniform(-200, 200, 2)
            base = interval(Event("a", tuple(pa), ta), Event("b", tuple(pb), tb))
            for k in (0.5, 2.0, 10.0):
                scaled = interval(
                    Event("a", tuple(k * pa), k * ta), Event("b", tuple(k * pb), k * tb)
                )
                assert scaled == base

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (ORIGIN, Event("b", (0.0, 0.0, 0.0), 1e160), TIME_LIKE),
            (ORIGIN, Event("b", (1e200, 0.0, 0.0), 0.0), SPACE_LIKE),
            (ORIGIN, Event("b", (0.0, 0.0, 0.0), 1e-170), TIME_LIKE),
            (ORIGIN, Event("b", (1e-170, 0.0, 0.0), 0.0), SPACE_LIKE),
            # the differences themselves overflow to inf
            (Event("a", (0.0, 0.0, 0.0), -1e308), Event("b", (0.0, 0.0, 0.0), 1e308), TIME_LIKE),
            (Event("a", (-1e308, 0.0, 0.0), 0.0), Event("b", (1e308, 0.0, 0.0), 0.0), SPACE_LIKE),
            # halved, the distance still overflows
            (Event("a", (-MAX,) * 3, 0.0), Event("b", (MAX,) * 3, 0.0), SPACE_LIKE),
        ],
        ids=["1e160-ns", "1e200-m", "1e-170-ns", "1e-170-m", "2e308-ns", "2e308-m", "max"],
    )
    def test_squares_out_of_range_keep_their_class(self, a, b, expected):
        # dt^2 or dx^2 overflows to inf or underflows to 0, which read as light-like
        assert interval(a, b) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        x=MAGNITUDES,
        y=MAGNITUDES,
        t=MAGNITUDES,
        cone=st.one_of(st.none(), st.floats(-3e-6, 3e-6)),
    )
    def test_unscaled_formula_where_its_squares_are_normal(self, x, y, t, cone):
        if cone is not None:  # near the light cone, where the tolerance decides
            t = math.hypot(x, y) / C_M_PER_NS * (1.0 + cone)
        a, b = Event("a", (0.0, 0.0, 0.0), 0.0), Event("b", (x, y, 0.0), t)
        dt = (b.time - a.time) * C_M_PER_NS
        dx = math.dist(a.position, b.position)
        s2, scale = dt * dt - dx * dx, dt * dt + dx * dx
        # each square, and the tolerance, is normal or the exact product of a zero
        tolerance = LIGHT_LIKE_REL_TOL * scale
        for base, square in ((dt, dt * dt), (dx, dx * dx), (scale, tolerance)):
            assume(base == 0.0 or sys.float_info.min <= square < math.inf)
        if abs(s2) <= tolerance:
            expected = LIGHT_LIKE
        else:
            expected = TIME_LIKE if s2 > 0.0 else SPACE_LIKE
        assert interval(a, b) == expected


class TestValidate:
    def test_reference_schedule_passes_everything(self):
        report = validate(reference_schedule())
        assert report.all_passed
        assert [c.name for c in report.conditions] == ["C1", "C2", "C3", "C4", "C5"]

    def test_delayed_bob_choice_fails_c1(self):
        # 200 ns exceeds the 153.4 ns light time across 46 m
        report = validate(moved(reference_schedule(), "bob_choice", dt_ns=200.0))
        assert not report["C1"].passed
        assert not report.all_passed

    @pytest.mark.parametrize("dt_ns", [0.0, 200.0], ids=["bundled", "fails-c1"])
    def test_json_dict_has_every_condition_field(self, configs_dir, dt_ns):
        # written out by hand, so a field added to the record must be added to it too
        bundled = Schedule.from_json_file(str(configs_dir / "reference_geometry_schedule.json"))
        report = validate(moved(bundled, "bob_choice", dt_ns=dt_ns))
        assert report.all_passed == (dt_ns == 0.0)
        conditions = report.to_json_dict()["conditions"]
        assert [list(c) for c in conditions] == [[f.name for f in fields(ConditionResult)]] * 5
        assert conditions == [vars(c) for c in report.conditions]

    def test_colocated_events_fail_spacelike_checks(self):
        origin = (0.0, 0.0, 0.0)
        events = {
            label: Event(label, origin, 1.0 * k)
            for k, label in enumerate(
                ["pair_emission", "alice_choice", "bob_choice", "alice_measurement", "bob_measurement"]
            )
        }
        report = validate(Schedule(events, {}))
        assert not report["C1"].passed
        assert not report["C2"].passed
        assert not report["C3"].passed

    def test_early_measurement_fails_c5(self):
        report = validate(moved(reference_schedule(), "alice_measurement", dt_ns=-10.0))
        assert not report["C5"].passed

    def test_choice_order_fails_c4(self):
        report = validate(moved(reference_schedule(), "bob_choice", dt_ns=-65.0))
        assert not report["C4"].passed

    def test_wider_geometry_keeps_spacelike_checks_passing(self):
        # pushing stations apart with times fixed can only grow the margins
        base = reference_schedule()
        for k in (1.5, 3.0, 10.0):
            events = {
                label: Event(label, tuple(k * x for x in ev.position), ev.time)
                for label, ev in base.events.items()
            }
            report = validate(Schedule(events, base.media))
            for name in ("C1", "C2", "C3"):
                assert report[name].passed

    def test_missing_event_rejected(self):
        events = dict(reference_schedule().events)
        del events["bob_choice"]
        with pytest.raises(ValueError, match="bob_choice"):
            Schedule(events, {})

    def test_unknown_link_endpoint_rejected(self):
        base = reference_schedule()
        media = dict(base.media)
        media["bad"] = Link("pair_emission", "nonexistent", 0.68, 10.0)
        with pytest.raises(ValueError, match="nonexistent"):
            Schedule(base.events, media)


class TestScheduleJson:
    def test_round_trip(self):
        base = reference_schedule()
        again = Schedule.from_json_dict(base.to_json_dict())
        assert again == base

    def test_bundled_fixture_matches_reference(self, configs_dir):
        with open(configs_dir / "reference_geometry_schedule.json", encoding="utf-8") as fh:
            loaded = Schedule.from_json_dict(json.load(fh))
        assert loaded == reference_schedule()
        assert validate(loaded).all_passed

    def test_malformed_schedule(self):
        with pytest.raises(ValueError):
            Schedule.from_json_dict({"events": [{"label": "x"}]})

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link("a", "b", 0.0, 10.0)
        with pytest.raises(ValueError):
            Link("a", "b", 1.2, 10.0)
        for length in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="link length"):
                Link("a", "b", 0.5, length)


class TestReferenceGeometry:
    def test_fiber_transit_times(self):
        sched = reference_schedule()
        assert sched.media["charlie_alice"].transit_ns() == pytest.approx(137.35, abs=0.01)
        assert sched.media["charlie_bob"].transit_ns() == pytest.approx(161.88, abs=0.01)

    def test_station_separation(self):
        sched = reference_schedule()
        alice = sched.events["alice_measurement"].position
        bob = sched.events["bob_measurement"].position
        assert math.dist(alice, bob) == 46.0

    def test_fibers_no_shorter_than_straight_line(self):
        sched = reference_schedule()
        for link in sched.media.values():
            src = sched.events[link.source].position
            dst = sched.events[link.target].position
            assert link.length_m >= math.dist(src, dst)
