"""Port-count arithmetic of the position-finding adaptive lower bound.

Finding the one target cell among ``m`` (the others background, flat prior)
with ``u`` adaptive probes per cell has its error bounded from below by
simulating each cell with an ``M``-port teleportation protocol: the
pairwise-fidelity bound on the simulated (Choi-probe block) error, less
``u/2`` times the simulation error.  This module holds that bound on numbers
and arrays of port counts, elementwise over arrays of Choi fidelities, and
its maximum over port counts (:func:`argmax_ports`): one evaluation on at
most five candidates per point read off the stationary points of the bound's
closed form, no search.  The damping instances are in :mod:`chandisc.qadc`.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import KIND_LOWER, BoundReport, ChandiscError, check_count, check_prob


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


def cpf_nonadaptive_fidelity_lb(choi_fidelity, m: int, u: int) -> BoundReport:
    """Lower bound for Choi-probe block strategies: one port, no simulation penalty.

    :func:`_fidelity_lb` at ``ports = 1`` and ``delta_avg = 0``: the block
    error of ``u``-fold Choi-state probes, each cell probed by half of a
    maximally entangled pair.  It is no bound for other non-adaptive
    strategies, such as unentangled probes.
    """
    choi_fidelity = check_prob(choi_fidelity, "fidelity")
    m, u = check_count(m, "m", 2), check_count(u, "u", 1)
    value = _fidelity_lb(choi_fidelity, m, u, np.int64(1), 0.0)
    return BoundReport(value, KIND_LOWER, "cpf_nonadaptive_fidelity_lb",
                       {"choi_fidelity": choi_fidelity, "m": m, "u": u})


def argmax_ports(kernel, ports_range, peak, *points, knots=None):
    """Per point, the port count in ``ports_range`` where ``kernel`` peaks, and its value.

    ``kernel`` maps int64 port counts, a row of candidates per point along
    a last axis, to the adaptive bound at each.  With a tabulated
    simulation prefactor, stepping at the port counts ``knots``, the bound
    is non-increasing between knots, so its maximum lies on ``lo`` or a
    knot in range.  With the default prefactor ``min(4/M, 2)`` the bound
    falls from 1 to 2 ports (the prefactor is constant there) and from 2
    ports on rises to a local maximum at its stationary point, ``peak`` of
    the entries of the same-shape arrays ``points`` at that point
    (:func:`position_peak`, :func:`pair_peak`), falls to a trough, then
    rises toward 0 from below as the penalty fades; so its maximum over the
    integers lies on ``lo``, 2, ``floor(peak)``, ``ceil(peak)`` or ``hi``.
    ``kernel`` is called once, on the candidates in range; the ends of
    ``ports_range = (lo, hi)`` must be counts, ``1 <= lo <= hi``.

    Tie rule: the smallest port among the candidates whose values are
    float-equal maxima.  In exact arithmetic that is the smallest argmax
    over the whole range.  In floats a port off the candidates can match
    or beat it by the kernel's rounding alone, where the bound moves by
    less than its rounding from port to port: the tail below a large
    ``hi``, or the top of a wide maximum.  A NaN bound is refused.
    """
    try:
        lo = check_count(ports_range[0], "start", 1)
        hi = check_count(ports_range[1], "end", lo)
    except ChandiscError as exc:
        raise ChandiscError(
            f"invalid port range ({ports_range[0]}, {ports_range[1]}): {exc}") from None
    if knots is not None:  # one row, the same at every point
        ports = np.array([lo, *knots[(knots > lo) & (knots <= hi)].tolist()], dtype=np.int64)
    else:
        rows = []
        for top in map(peak, *(np.ravel(entries).tolist() for entries in points)):
            candidates = {lo, 2, hi}
            if top < math.inf:
                candidates.update((math.floor(top), math.ceil(top)))
            rows.append(sorted(p for p in candidates if lo <= p <= hi))
        # a short row repeats its largest port, hi, which ties after its first maximum
        width = max(map(len, rows), default=1)
        ports = np.array([row + [hi] * (width - len(row)) for row in rows],
                         dtype=np.int64).reshape(np.shape(points[0]) + (width,))
    values = kernel(ports)
    ports = np.broadcast_to(ports, values.shape)
    nan = np.isnan(values)
    if nan.any():  # NaN has no place in the order
        raise ChandiscError(f"bound is NaN at {ports[nan][0]} ports")
    best = np.argmax(values, axis=-1)[..., None]  # the first maximum of each row
    return tuple(np.take_along_axis(table, best, -1)[..., 0] for table in (ports, values))


def _rising_root(log_h, target: float, top: float, t: float) -> float:
    """``x = e**t`` where ``log h`` first reaches ``target``, or the peak ``e**top``.

    ``log_h(t)`` returns ``log h`` and its slope, concave in ``t = log x``
    with its peak at ``top``; so Newton steps from ``t`` below the root rise
    to it monotonically.
    """
    for _ in range(100):
        value, slope = log_h(t)
        gap = target - value
        if gap <= 0.0 or slope <= 0.0:  # slope > 0 below the peak
            break
        step = gap / slope
        t = min(t + step, top)
        if t == top or step <= 1e-16 * max(1.0, abs(t)):
            break
    return math.exp(t)


def _log_position_h(t: float):
    # log h and its slope in t = log x for h = x**2 e**(-x), up to a constant
    x = math.exp(t)
    return 2.0 * t - x, 2.0 - x


def position_peak(c: float, a: float, b: float) -> float:
    """Stationary point of the position-finding bound ``a e**(-c M) - b/M``.

    The root of ``h(M) = c a M**2 e**(-c M) = b`` on the rising side of
    ``h``, or the peak ``2/c`` of ``h`` when ``h < b`` everywhere; ``inf``
    when the bound is monotone (``c`` or ``b`` is 0).  In ``x = c M``,
    ``x**2 e**(-x) = c b / a``; ``x = sqrt(c b / a)`` starts below the root.
    """
    if not (c > 0.0 and b > 0.0):
        return math.inf
    if math.isinf(c):
        return 0.0
    target = math.log(c) + math.log(b) - math.log(a)
    top = math.log(2.0)
    return _rising_root(_log_position_h, target, top, min(target / 2.0, top)) / c


# x = c M at the peak of the pair bound's h (see pair_peak): the root of
# 2/x - 1 - 1/(2 (e**x - 1)), the derivative of log h in x.
PAIR_PEAK_X = 1.8245642597362943


def _log_pair_h(t: float):
    # log phi and its slope in t = log x, phi(x) = x**2 e**(-x) / (2 sqrt(1 - e**(-x)))
    x = math.exp(t)
    return (2.0 * t - x - 0.5 * math.log(-math.expm1(-x)) - math.log(2.0),
            2.0 - x - x / (2.0 * math.expm1(x)))


def pair_peak(c: float, b: float) -> float:
    """Stationary point of the pair bound ``(1 - b/M - sqrt(1 - e**(-c M))) / 2``.

    The root of ``h(M) = phi(c M) / c = b``, ``phi(x) = x**2 e**(-x) / (2
    sqrt(1 - e**(-x)))``, on the rising side of ``h``, or the peak of ``h``
    when ``h < b`` everywhere; ``inf`` when the bound is monotone.  ``log
    phi`` is concave in ``t = log x``; ``phi(x) <= x**1.5 / 2`` starts the
    Newton steps below the root.
    """
    if not (c > 0.0 and b > 0.0):
        return math.inf
    if math.isinf(c):
        return 0.0
    target = math.log(c) + math.log(b)
    top = math.log(PAIR_PEAK_X)
    t = min(2.0 / 3.0 * (math.log(2.0) + target), top)
    return _rising_root(_log_pair_h, target, top, t) / c
