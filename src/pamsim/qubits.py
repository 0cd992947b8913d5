"""Minimal complex linear algebra for one- and two-qubit pure states.

Conventions
-----------
- |H> = (1, 0), |V> = (0, 1); two-qubit amplitudes are ordered
  (HH, HV, VH, VV) with the first letter labelling the sender (Alice)
  and the second the receiver (Bob).
- A "phase ket" is (|H> + e^{i phi} |V>) / sqrt(2).
- Global phase is physically irrelevant: states must only ever be
  compared through Born-rule statistics, never amplitude-wise.

Heralding convention
--------------------
`herald` applies the sender's phase shift to her V component and then
projects her qubit onto (|H> + s|V>)/sqrt(2), s = +-1.  For the Bell
state PHI_PLUS the receiver's conditional state is a phase ket, with

    (sender phase, +1)  ->  receiver phase = sender phase
    (sender phase, -1)  ->  receiver phase = sender phase + pi

so the four preparations {0, pi, +pi/2, -pi/2} are reached with sender
phases {0, pi/2} and both projector signs.  This table is fixed by
requiring heralded preparation to be statistically indistinguishable
from direct phase-ket preparation (see tests).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_SQRT2 = math.sqrt(2.0)


class ZeroProbabilityBranch(ValueError):
    """Raised when a heralding branch has (numerically) zero probability."""


def canonical_phase(phi: float) -> float:
    """Reduce an angle in radians to the canonical interval (-pi, pi]."""
    r = math.remainder(phi, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class Ket2:
    """Single-qubit pure state with amplitudes on |H> and |V>."""

    a_h: complex
    a_v: complex


@dataclass(frozen=True)
class Ket4:
    """Two-qubit pure state with amplitudes ordered (HH, HV, VH, VV)."""

    hh: complex
    hv: complex
    vh: complex
    vv: complex

    def norm_error(self) -> float:
        return abs(
            abs(self.hh) ** 2 + abs(self.hv) ** 2 + abs(self.vh) ** 2 + abs(self.vv) ** 2 - 1.0
        )


def phase_ket(phi: float) -> Ket2:
    """Return (|H> + e^{i phi}|V>) / sqrt(2)."""
    return Ket2(1.0 / _SQRT2, cmath.exp(1j * phi) / _SQRT2)


def born(state: Ket2, basis_ket: Ket2) -> float:
    """Born-rule probability |<basis_ket|state>|^2 for normalized inputs."""
    amp = basis_ket.a_h.conjugate() * state.a_h + basis_ket.a_v.conjugate() * state.a_v
    return abs(amp) ** 2


def herald(pair: Ket4, alice_phase: float, alice_outcome: int) -> tuple[float, Ket2]:
    """Project the sender's qubit and return (probability, receiver state).

    The sender's phase shift acts on her V component, then her qubit is
    projected onto (|H> + s|V>)/sqrt(2) where s = alice_outcome in
    {+1, -1}.  The two outcome probabilities sum to 1 for a normalized
    pair.  A branch with probability below 1e-15 raises
    ZeroProbabilityBranch since no conditional state exists.
    """
    if alice_outcome not in (1, -1):
        raise ValueError(f"alice_outcome must be +1 or -1, got {alice_outcome!r}")
    ph = cmath.exp(1j * alice_phase)
    s = float(alice_outcome)
    b_h = (pair.hh + s * ph * pair.vh) / _SQRT2
    b_v = (pair.hv + s * ph * pair.vv) / _SQRT2
    prob = abs(b_h) ** 2 + abs(b_v) ** 2
    if prob < 1e-15:
        raise ZeroProbabilityBranch(
            f"heralding branch (phase={alice_phase!r}, outcome={alice_outcome:+d}) "
            f"has probability {prob:.3e}"
        )
    n = math.sqrt(prob)
    return prob, Ket2(b_h / n, b_v / n)


# Bell state used by the heralded-preparation model.
PHI_PLUS = Ket4(1.0 / _SQRT2, 0.0, 0.0, 1.0 / _SQRT2)
