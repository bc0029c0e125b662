"""Reference values the benchmark checks the program against.

Nothing here imports kgyukawa: the published tables are data, and the
bound-state energies come from the closed-form quadratic below, an
algebraic route that shares no code with the program's scan solver.

Closed form.  With K = 2n+1+Lambda, Lambda = sqrt((D+2l-2)^2 + 4(s0^2-v0^2))
and eps = sqrt(M^2 - E^2), the quantization condition
(K -+ eps/a)^2 = -(E/a - 2 v0)^2 + (M/a + 2 s0)^2 is linear in eps and E
once eps^2 + E^2 = M^2 is used:

    +-2 K eps = C - 4 v0 E,     C = a (K^2 + 4 (v0^2 - s0^2)) - 4 s0 M,

with + for the published (growing) branch and - for the decaying branch.
Squaring gives (K^2 + 4 v0^2) E^2 - 2 v0 C E + (C^2/4 - K^2 M^2) = 0; the
sign of C - 4 v0 E assigns each root to its branch.
"""
from __future__ import annotations

import math

# The program scans (-M, M) shrunk by this relative margin; a root closer
# to +-M than that is outside its search domain.
EDGE = 1e-9

NL_COLUMNS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
DIMS = tuple(range(3, 11))

# Published energies (a = 0.05, M = 1), rows D = 3..10, columns NL_COLUMNS,
# keyed by (v0, s0).
PUBLISHED = {
    (0.2, 0.1): (
        (-0.98885705, -0.98338741, -0.97466557, -0.97487357, -0.96331623, -0.94911313),
        (-0.98646010, -0.97934739, -0.96930758, -0.96939381, -0.95656399, -0.94094526),
        (-0.98323850, -0.97466557, -0.96326494, -0.96331623, -0.94911313, -0.93204148),
        (-0.97928221, -0.96930758, -0.95652848, -0.95656399, -0.94094526, -0.92238088),
        (-0.97462541, -0.96326494, -0.94908636, -0.94911313, -0.93204148, -0.91193997),
        (-0.96927908, -0.95652848, -0.94092392, -0.94094526, -0.92238088, -0.90069216),
        (-0.96324303, -0.94908636, -0.93202380, -0.93204148, -0.91193997, -0.88860737),
        (-0.95651076, -0.94092392, -0.92236581, -0.92238088, -0.90069216, -0.87565154),
    ),
    (0.2, 0.2): (
        (-0.99503719, -0.98879900, -0.97999949, -0.97999949, -0.96856958, -0.95441573),
        (-0.99223481, -0.98472320, -0.97461857, -0.97461857, -0.96184005, -0.94628043),
        (-0.98879900, -0.97999949, -0.96856958, -0.96856958, -0.95441573, -0.93741586),
        (-0.98472320, -0.97461857, -0.96184005, -0.96184005, -0.94628043, -0.92780131),
        (-0.97999949, -0.96856958, -0.95441573, -0.95441573, -0.93741586, -0.91741347),
        (-0.97461857, -0.96184005, -0.94628043, -0.94628043, -0.92780131, -0.90622603),
        (-0.96856958, -0.95441573, -0.93741586, -0.93741586, -0.91741347, -0.89420931),
        (-0.96184005, -0.94628043, -0.92780131, -0.92780131, -0.90622603, -0.88132977),
    ),
    (0.2, -0.2): (
        (-0.95533246, -0.95980903, -0.95464935, -0.95464935, -0.94475060, -0.93125228),
        (-0.95948526, -0.95796541, -0.95018875, -0.95018875, -0.93842313, -0.92325937),
        (-0.95980903, -0.95464935, -0.94475060, -0.94475060, -0.93125228, -0.91445014),
        (-0.95796541, -0.95018875, -0.93842313, -0.93842313, -0.92325937, -0.90481957),
        (-0.95464935, -0.94475060, -0.93125228, -0.93125228, -0.91445014, -0.89435454),
        (-0.95018875, -0.93842313, -0.92325937, -0.92325937, -0.90481957, -0.88303523),
        (-0.94475060, -0.93125228, -0.91445014, -0.91445014, -0.89435454, -0.87083573),
        (-0.93842313, -0.92325937, -0.90481957, -0.90481957, -0.88303523, -0.85772427),
    ),
}
PUBLISHED_TOL = 1e-7


def published_energy(v0: float, s0: float, d: int, n: int, l: int):
    """Published energy of cell (d, n, l), or None where the paper prints none."""
    table = PUBLISHED.get((v0, s0))
    if table is None or d not in DIMS or (n, l) not in NL_COLUMNS:
        return None
    return table[DIMS.index(d)][NL_COLUMNS.index((n, l))]


COMPLEX_CHANNEL = "complex_channel"
NO_STATE = "no_state"
PUBLISHED_BRANCH = "published"
DECAYING_BRANCH = "decaying"


def closed_form(v0, s0, a, mass, n, l, d, branch):
    """Energy on one branch, or the outcome string when there is none.

    Returns a float, COMPLEX_CHANNEL or NO_STATE.  The published branch
    reports its lowest root and the decaying branch its highest, the
    roots the program selects.
    """
    chan = (d + 2 * l - 2) ** 2 + 4.0 * (s0 * s0 - v0 * v0)
    if chan < 0.0:
        return COMPLEX_CHANNEL
    k = 2 * n + 1 + math.sqrt(chan)
    c = a * (k * k + 4.0 * (v0 * v0 - s0 * s0)) - 4.0 * s0 * mass
    qa = k * k + 4.0 * v0 * v0
    qb = -2.0 * v0 * c
    qc = 0.25 * c * c - k * k * mass * mass
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return NO_STATE
    # numerically stable pair of roots
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = {q / qa, qc / q} if q != 0.0 else {0.0}
    sign = 1.0 if branch == PUBLISHED_BRANCH else -1.0
    kept = [
        e for e in roots
        if abs(e) < mass * (1.0 - EDGE) and sign * (c - 4.0 * v0 * e) >= 0.0
    ]
    if not kept:
        return NO_STATE
    return min(kept) if branch == PUBLISHED_BRANCH else max(kept)


def nonrel_energy(mu, v0, a, n, l, d):
    """Screened-Coulomb Schrodinger energy -(nu a - mu v0 / nu)^2 / (2 mu)
    with nu = n + d/2 + l - 1/2."""
    nu = n + d / 2.0 + l - 0.5
    return -((nu * a - mu * v0 / nu) ** 2) / (2.0 * mu)


# Decaying-branch states the oracle workload solves: v0 = 0.2, a = 0.05,
# M = 1, (n, l, D) = (1, 0, 3), eigen_index = 1.  Energies to 1e-8.
ORACLE_STATES = {1.0: 0.99503719, 0.5: 0.99859442}
ORACLE_RICHARDSON_TOL = 5e-5
ORACLE_MODE_GAP_MAX = 2e-3
