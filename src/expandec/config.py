"""Run profiles: the published parameter constants and a desk-scale variant.

The `paper` profile carries the constants the analysis is stated with; they make
walk horizons astronomically large on graphs that fit in a test suite.  The
`desk` profile keeps every functional form and substitutes small leading
constants so the full pipeline runs in seconds.  A profile holds only the
values the two differ in: the walk and local-cut constants, the jump slack,
the accumulation caps, the conductance-ladder floor and whether the
balanced-cut phi cap is enforced.  Values both use are module constants where
they are used (the ladder quality, floor decay, finalization cutoff and
low-diameter K in `decomposition`, the sampling constants in `clustering`,
the mixing-form constant in `triangles`).  Every run records the profile it
used, so results are reproducible from their embedded config.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Profile:
    name: str
    # Walk / local-cut parameter constants (functional forms fixed).
    c_t0: float          # leading constant of the walk horizon
    c_f: float           # denominator constant of the detectability function
    c_gamma: float       # denominator constant of the sweep mass floor
    c_eps: float         # denominator constant of the truncation schedule
    c_parallel: float    # divisor constant in the concurrent-instance count
    # Conductance multiplier accepted on jump candidates during the sweep scan.
    starred_slack: float
    # Caps that keep the cut-accumulation loop finite at desk scale.
    g_cap: int | None
    s_cap: int | None
    # Conductance ladder of the decomposition.
    phi_floor: float | None
    enforce_phi_cap: bool  # require phi <= 1/log2(n)^5 for the balanced-cut wrapper


PAPER = Profile(
    name="paper",
    c_t0=49.0,
    c_f=float(14**4),
    c_gamma=392.0,
    c_eps=56.0,
    c_parallel=56.0,
    starred_slack=12.0,
    g_cap=None,
    s_cap=None,
    phi_floor=None,
    enforce_phi_cap=True,
)

# Desk constants (4, 8, 8, 4) stand in for (49, 14^4, 392, 56).  The jump-slack
# 12 admits junk cuts once phi is no longer microscopic, so the desk profile
# tightens it to 2; the hard bound Phi(C) <= 12*phi still holds a fortiori.
DESK = Profile(
    name="desk",
    c_t0=4.0,
    c_f=8.0,
    c_gamma=8.0,
    c_eps=4.0,
    c_parallel=4.0,
    starred_slack=2.0,
    g_cap=2,
    s_cap=12,
    phi_floor=1.0 / 12.0,
    enforce_phi_cap=False,
)

_PROFILES = {"paper": PAPER, "desk": DESK}


def get_profile(name: str) -> Profile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; expected one of {sorted(_PROFILES)}") from None
