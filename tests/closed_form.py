"""Closed-form quantization energies: an independent reference for the
scan-and-bisect solver.

With K = 2n+1+Lambda, Lambda = sqrt((D+2l-2)^2 + 4(s0^2-v0^2)) and
eps = sqrt(M^2 - E^2), the condition (K -+ eps/a)^2 =
-(E/a - 2 v0)^2 + (M/a + 2 s0)^2 becomes linear in eps and E once
eps^2 + E^2 = M^2 is used:

     2 K eps = C - 4 v0 E    on the published (growing, -eps/a) branch,
    -2 K eps = C - 4 v0 E    on the decaying (+eps/a) branch,

with C = a (K^2 + 4 (v0^2 - s0^2)) - 4 s0 M.  Squaring gives
(4K^2 + 16 v0^2) E^2 - 8 v0 C E + C^2 - 4 K^2 M^2 = 0, and the sign of
C - 4 v0 E assigns each root to its branch.
"""
import math

from kgyukawa.solver import SCAN_EDGE

COMPLEX_CHANNEL = "complex_channel"
NO_STATE = "no_state"


def closed_form_energy(v0, s0, a, mass, n, l, d, branch):
    """The root the solver selects on one branch (lowest on "published",
    highest on "decaying"), or COMPLEX_CHANNEL / NO_STATE when there is
    none inside the scanned interval |E| < M (1 - SCAN_EDGE)."""
    chan = (d + 2 * l - 2) ** 2 + 4.0 * (s0 * s0 - v0 * v0)
    if chan < 0.0:
        return COMPLEX_CHANNEL
    k = 2 * n + 1 + math.sqrt(chan)
    c = a * (k * k + 4.0 * (v0 * v0 - s0 * s0)) - 4.0 * s0 * mass
    qa = 4.0 * k * k + 16.0 * v0 * v0
    qb = -8.0 * v0 * c
    qc = c * c - 4.0 * k * k * mass * mass
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return NO_STATE
    # numerically stable pair of roots
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = {q / qa, qc / q} if q != 0.0 else {0.0}
    published = branch == "published"
    kept = [
        e for e in roots
        if abs(e) < mass * (1.0 - SCAN_EDGE)
        and (c - 4.0 * v0 * e >= 0.0) == published
    ]
    if not kept:
        return NO_STATE
    return min(kept) if published else max(kept)
