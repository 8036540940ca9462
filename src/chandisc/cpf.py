"""Bounds for locating one anomalous channel among ``m`` positions.

A position-finding instance is specified by a background channel occupying
``m - 1`` cells and a target channel occupying the remaining one, with a
flat prior over positions.  Probing every cell ``u`` times with arbitrary
adaptive, entangled strategies admits a lower bound built from channel
simulation: replace each cell by an ``M``-port teleportation simulation,
collect the resulting block states (tensor powers of cell Choi matrices),
and pay a continuity penalty ``u/2`` times the accumulated simulation
error.  This module holds the arithmetic of that route, all of it on
numbers and arrays of port counts: the fidelity bound on the block error net
of that penalty, the checks on port counts and port ranges, and the maximum
over port counts (:func:`argmax_ports`): one bound evaluation on at most five
candidates read off the stationary points of the bound's closed form, no
search.

The block states themselves are not built here.  The iterative Helstrom
solver runs on plain tensor powers of the cell Choi matrices
(:func:`chandisc.discrimination.tensor_all`); for damping cells the
square-root-measurement error needs no states at all: see
:func:`chandisc.qadc.qadc_cpf_block_pgm`.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import KIND_LOWER, MAX_COUNT, BoundReport, ChandiscError, check_count, check_prob


class CpfError(ChandiscError):
    """Raised for invalid position-finding specifications."""


def check_ports(ports, error) -> np.ndarray:
    """``ports`` as an int64 array, raising ``error`` unless every count is an integer >= 1."""
    counts = np.asarray(ports)
    try:
        if counts.dtype.kind == "f" and not ((np.trunc(counts) == counts)
                                             & (np.abs(counts) < 2.0**63)).all():
            raise OverflowError  # the int64 cast would truncate or wrap these counts
        ports = np.asarray(ports, dtype=np.int64)
    except OverflowError:
        raise error(f"port counts must be integers that fit in int64, got {ports}") from None
    if (ports < 1).any():
        raise error(f"need ports >= 1, got {ports.min()}")
    return ports


def _fidelity_lb(choi_fidelity: float, m: int, u: int, ports: np.ndarray, delta_avg):
    """Position-finding adaptive lower bound from pairwise fidelities, on checked arguments.

    The pairwise-fidelity bound
    ``sum_{k<k'} p_k p_k' F(rho_k, rho_k')**(2 u ports)`` on the block error
    of ``u * ports``-fold tensor powers, minus the continuity penalty.  Two
    hypotheses differ in exactly two slots (background vs target either
    way), so every pairwise ensemble fidelity equals the squared Choi
    fidelity ``F**2`` and the bound collapses to

        ``(m - 1) / (2 m) * F**(4 u ports) - u * delta_avg / 2``,

    evaluated elementwise over an array of port counts and the simulation
    errors at each of them.
    """
    # The exponent in floats, since 4 u ports can exceed the int64 range.
    # float_power takes the scalar pow per element, as Python's ``**`` does;
    # np.power's vectorised loop can be an ulp off it.
    exponent = 4 * u * ports.astype(np.float64)
    return (m - 1) / (2.0 * m) * np.float_power(choi_fidelity, exponent) - u * delta_avg / 2.0


def cpf_nonadaptive_fidelity_lb(choi_fidelity: float, m: int, u: int) -> BoundReport:
    """Lower bound for block (non-adaptive) strategies: one port, no simulation penalty.

    :func:`_fidelity_lb` at ``ports = 1`` and ``delta_avg = 0``.
    """
    choi_fidelity = float(check_prob(choi_fidelity, "fidelity", CpfError))
    m, u = check_count(m, "m", 2, CpfError), check_count(u, "u", 1, CpfError)
    value = _fidelity_lb(choi_fidelity, m, u, np.int64(1), 0.0)
    return BoundReport(value, KIND_LOWER, "cpf_nonadaptive_fidelity_lb",
                       {"choi_fidelity": choi_fidelity, "m": m, "u": u})


# Largest port count a range may end at: check_count's bound.
MAX_PORTS = MAX_COUNT


def check_port_range(ports_range) -> tuple[int, int]:
    """``(lo, hi)`` as ints, raising :class:`CpfError` unless ``1 <= lo <= hi``.

    Both ends are counts, so :func:`~chandisc.linalg.check_count` also
    refuses an end above ``2**53`` (``MAX_PORTS``).
    """
    try:
        lo = check_count(ports_range[0], "start", 1, CpfError)
        hi = check_count(ports_range[1], "end", lo, CpfError)
    except CpfError as exc:
        raise CpfError(f"invalid port range ({ports_range[0]}, {ports_range[1]}): {exc}") from None
    return lo, hi


def argmax_ports(kernel, ports_range, peak, knots=None):
    """The port count in ``ports_range = (lo, hi)`` where ``kernel`` peaks, and its value.

    ``kernel`` maps an int64 array of port counts to the adaptive bound at
    each.  With a tabulated simulation prefactor, stepping at the port
    counts ``knots``, the bound is non-increasing between knots, so its
    maximum lies on ``lo`` or a knot in range.  With the default prefactor
    ``min(4/M, 2)`` the bound falls from 1 to 2 ports (the prefactor is
    constant there) and from 2 ports on rises to a local maximum at the
    stationary point ``peak()`` (:func:`position_peak`, :func:`pair_peak`),
    falls to a trough, then rises toward 0 from below as the penalty fades;
    so its maximum over the integers lies on ``lo``, 2, ``floor(peak())``,
    ``ceil(peak())`` or ``hi``.  ``kernel`` is called once, on the
    candidates in range.

    Tie rule: the smallest port among the candidates whose values are
    float-equal maxima.  In exact arithmetic that is the smallest argmax
    over the whole range.  In floats a port off the candidates can match
    or beat it by the kernel's rounding alone, where the bound moves by
    less than its rounding from port to port: the tail below a large
    ``hi``, or the top of a wide maximum.  A NaN bound is refused.
    """
    lo, hi = check_port_range(ports_range)
    if knots is not None:
        candidates = {lo, *knots[(knots > lo) & (knots <= hi)].tolist()}
    else:
        candidates = {lo, 2, hi}
        top = peak()
        if top < math.inf:
            candidates.update((math.floor(top), math.ceil(top)))
    ports = np.array(sorted(p for p in candidates if lo <= p <= hi), dtype=np.int64)
    values = kernel(ports).tolist()
    nan = [port for port, value in zip(ports.tolist(), values) if value != value]
    if nan:  # NaN has no place in the order
        raise CpfError(f"bound is NaN at {nan[0]} ports")
    best = values.index(max(values))  # the first maximum
    return int(ports[best]), values[best]


def position_peak(c: float, a: float, b: float) -> float:
    """Stationary point of the position-finding bound ``a e**(-c M) - b/M``.

    The root of ``h(M) = c a M**2 e**(-c M) = b`` on the rising side of
    ``h``, ``M = -(2/c) W0(-sqrt(c b / a) / 2)`` with ``W0`` the principal
    Lambert W branch, or the peak ``2/c`` of ``h`` when ``h < b``
    everywhere; ``inf`` when the bound is monotone (``c`` or ``b`` is 0).
    """
    if not (c > 0.0 and b > 0.0):
        return math.inf
    if math.isinf(c):
        return 0.0
    return -2.0 / c * _lambert_w0(max(-0.5 * math.sqrt(c * b / a), -1.0 / math.e))


def _lambert_w0(z: float) -> float:
    # Principal branch of the Lambert W function on [-1/e, 0], by Halley steps.
    branch = math.sqrt(max(0.0, 2.0 * (math.e * z + 1.0)))
    w = -1.0 + branch - branch * branch / 3.0 if z < -0.25 else math.log1p(z)
    for _ in range(20):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0 or w == -1.0:
            break
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 4e-16 * abs(w):
            break
    return max(w, -1.0)


# x = c M at the peak of the pair bound's h (see pair_peak): the root of
# 2/x - 1 - 1/(2 (e**x - 1)), the derivative of log h in x.
PAIR_PEAK_X = 1.8245642597362943


def pair_peak(c: float, b: float) -> float:
    """Stationary point of the pair bound ``(1 - b/M - sqrt(1 - e**(-c M))) / 2``.

    The root of ``h(M) = phi(c M) / c = b``, ``phi(x) = x**2 e**(-x) / (2
    sqrt(1 - e**(-x)))``, on the rising side of ``h``, or the peak of ``h``
    when ``h < b`` everywhere; ``inf`` when the bound is monotone.  ``log
    phi`` is concave in ``t = log x``, so Newton steps from below the root
    rise to it monotonically; ``phi(x) <= x**1.5 / 2`` starts them below.
    """
    if not (c > 0.0 and b > 0.0):
        return math.inf
    if math.isinf(c):
        return 0.0
    target = math.log(c) + math.log(b)
    top = math.log(PAIR_PEAK_X)
    t = min(2.0 / 3.0 * (math.log(2.0) + target), top)
    for _ in range(100):
        x = math.exp(t)
        gap = target - (2.0 * t - x - 0.5 * math.log(-math.expm1(-x)) - math.log(2.0))
        slope = 2.0 - x - x / (2.0 * math.expm1(x))  # d log phi / dt, > 0 below the peak
        if gap <= 0.0 or slope <= 0.0:
            break
        step = gap / slope
        t = min(t + step, top)
        if t == top or step <= 1e-16 * max(1.0, abs(t)):
            break
    return math.exp(t) / c
