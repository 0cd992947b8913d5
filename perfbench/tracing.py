"""Spans around the calls that cross pamsim's module boundaries.

For a traced pass the benchmark swaps module and class attributes of pamsim
for wrappers defined here, and puts the originals back afterwards; no file of
pamsim changes. Each wrapper records a span (name, start, end, parent) in
flat in-memory arrays; the pass it belongs to is its session. A span is named
``<layer>.<callable>``, where the layer is the module that defines the
callable, whichever module calls it.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from pamsim import classical, cli, scenario, spacetime, trials, witness

LAYERS = ("cli", "qubits", "scenario", "witness", "trials", "classical", "spacetime")


# Work done per call, computed from the call's arguments.
def _strategies(witness, d, n_prep, n_meas, cap=None):
    return d**n_prep * 2 ** (d * n_meas)


def _aware_strategies(witness, d, n_prep, n_meas, cap=None):
    return d ** (n_prep * n_meas) * 2 ** (d * n_meas)


def _restarts(d, n_prep=4, n_meas=2, restarts=10_000, seed=0, cap=None):
    return restarts


def _resamples(c, resamples, seed, fair_sampling):
    return resamples


def _trials(t, plan):
    return plan.trials_per_setting * t.n_prep * t.n_meas


_LINEAR = ("strategies", _strategies)

# (owner, attribute, span name, (counter, work per call) or None). A callable
# reached through several modules is wrapped in each of them.
SPANS = (
    (cli, "main", "cli.main", None),
    (cli, "probability_table", "scenario.probability_table", None),
    (cli, "report_from_table", "witness.report_from_table", None),
    (cli, "dimension_witness", "witness.dimension_witness", None),
    (cli, "sample", "trials.sample", ("trials", _trials)),
    (cli, "estimate", "trials.estimate", None),
    (cli, "bootstrap_report", "trials.bootstrap_report", ("resamples", _resamples)),
    (cli, "classical_max_linear", "classical.classical_max_linear", _LINEAR),
    (cli, "classical_max_det", "classical.classical_max_det", ("restarts", _restarts)),
    (cli, "validate", "spacetime.validate", None),
    (trials.CountTable, "to_csv", "trials.CountTable.to_csv", None),
    (trials.CountTable, "from_csv", "trials.CountTable.from_csv", None),
    (spacetime.Schedule, "from_json_file", "spacetime.Schedule.from_json_file", None),
    (trials, "ProbabilityTable", "scenario.ProbabilityTable", None),
    (trials, "estimate", "trials.estimate", None),
    (trials, "det_witness", "witness.det_witness", None),
    (trials, "dimension_witness", "witness.dimension_witness", None),
    (witness, "det_witness", "witness.det_witness", None),
    (witness, "dimension_witness", "witness.dimension_witness", None),
    (scenario, "ProbabilityTable", "scenario.ProbabilityTable", None),
    (scenario, "probability_table", "scenario.probability_table", None),
    (scenario, "heralded_table", "scenario.heralded_table", None),
    (scenario, "herald", "qubits.herald", None),
    (classical, "ProbabilityTable", "scenario.ProbabilityTable", None),
    (classical, "strategy_table", "classical.strategy_table", None),
    (classical, "classical_max_linear", "classical.classical_max_linear", _LINEAR),
    (classical, "setting_aware_max", "classical.setting_aware_max", ("strategies", _aware_strategies)),
    (classical, "retrocausal_max", "classical.retrocausal_max", None),
)

# Calls too small and too many for a span each: counted only, and their time
# stays in the caller's self time.
COUNTERS = ((classical, "_best_coordinate_move", "classical.det.line_searches"),)


class Tracer:
    """Span store of one benchmark run; a session is one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.sessions: list[tuple[int, int]] = []  # [first, end) span index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._first = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, work=None):
        nid = self._id(name)
        start, end, names, parents = self.start, self.end, self.name, self.parent
        stack, counts = self._stack, self.counts
        key = f"{name}.{work[0]}" if work else None

        def traced(*args, **kwargs):
            sid = len(start)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            if key:
                counts[key] += work[1](*args, **kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap the boundary callables for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, work in SPANS:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(name, raw.__func__, work))
                else:
                    wrapped = self.span(name, raw, work)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            for owner, attr, name in COUNTERS:
                raw = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, raw))
                setattr(owner, attr, self.counter(name, raw))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def begin(self) -> None:
        self._first = len(self.start)
        self.counts.clear()

    def summary(self) -> dict[str, float]:
        """Close the session and aggregate its spans.

        Per span name: calls, self_s (duration minus the time its child spans
        cover) and total_s. Per layer: self_s. Plus the work counters, the
        ``ProbabilityTable`` builds made inside ``classical_max_linear``
        (``classical.classical_max_linear.tables``) and ``roots_s``, the
        time covered by spans without a parent.
        """
        lo, hi = self._first, len(self.start)
        self.sessions.append((lo, hi))
        names = np.frombuffer(self.name[lo:hi], dtype=np.int64)
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        inner = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[inner], dur[inner])
        own = dur - covered

        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        own_sum = np.bincount(names, own, minlength=k)
        total = np.bincount(names, dur, minlength=k)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(own_sum[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name.split('.')[0]}.self_s"] += float(own_sum[i])

        # Parents precede their children, so lifting the flag one level per
        # round reaches every descendant of a classical_max_linear span.
        under = names == self._ids["classical.classical_max_linear"]
        lift = np.where(inner, parent, 0)
        while True:
            lifted = under | (inner & under[lift])
            if (lifted == under).all():
                break
            under = lifted
        tables = under & (names == self._ids["scenario.ProbabilityTable"])
        out["classical.classical_max_linear.tables"] = int(tables.sum())
        out["roots_s"] = float(dur[~inner].sum())
        out.update(self.counts)
        return out

    def dump(self, path: Path) -> None:
        """Write every span of the run, one column per field."""
        session = np.zeros(len(self.start), dtype=np.int64) - 1
        for k, (lo, hi) in enumerate(self.sessions):
            session[lo:hi] = k
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            session=session,
        )
