"""Bounds for locating one anomalous channel among ``m`` positions.

A position-finding instance is specified by a background channel occupying
``m - 1`` cells and a target channel occupying the remaining one, with a
flat prior over positions.  Probing every cell ``u`` times with arbitrary
adaptive, entangled strategies admits a lower bound built from channel
simulation: replace each cell by an ``M``-port teleportation simulation,
collect the resulting block states (tensor powers of cell Choi matrices),
and pay a continuity penalty ``u/2`` times the accumulated simulation
error.  This module holds the arithmetic of that route, all of it on
numbers and arrays of port counts: the simulation error of an instance, the
fidelity bounds on the block error net of that penalty, and the port-count
optimization.

The block states themselves are not built here.  The iterative Helstrom
solver runs on plain tensor powers of the cell Choi matrices
(:func:`chandisc.discrimination.tensor_all`); for damping cells the
square-root-measurement error needs no states at all: see
:func:`chandisc.qadc.qadc_cpf_block_pgm`.
"""

from __future__ import annotations

import numpy as np

from .linalg import KIND_LOWER, BoundReport, ChandiscError, Frozen


class CpfError(ChandiscError):
    """Raised for invalid position-finding specifications."""


def cpf_sim_error(delta_background, delta_target, m: int):
    """Per-hypothesis simulation error of an ``m``-cell instance.

    Simulating every cell adds errors linearly: ``m - 1`` background cells
    plus one target cell, independent of where the target sits.  Since it is
    the same for all hypotheses it already equals its prior average.
    Elementwise over arrays of simulation errors (one entry per port count).
    """
    m = int(m)
    if m < 2:
        raise CpfError(f"need m >= 2, got {m}")
    delta_background = np.asarray(delta_background, dtype=np.float64)
    delta_target = np.asarray(delta_target, dtype=np.float64)
    if (delta_background < 0.0).any() or (delta_target < 0.0).any():
        raise CpfError("simulation errors must be >= 0")
    return (m - 1) * delta_background + delta_target


def check_ports(ports, error=CpfError) -> np.ndarray:
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


def cpf_fidelity_lb_values(choi_fidelity: float, m: int, u: int, ports,
                           delta_avg) -> np.ndarray:
    """Position-finding adaptive lower bound from pairwise fidelities.

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
    choi_fidelity = float(choi_fidelity)
    if not 0.0 <= choi_fidelity <= 1.0:
        raise CpfError(f"fidelity must lie in [0, 1], got {choi_fidelity}")
    m = int(m)
    u = int(u)
    if m < 2 or u < 1:
        raise CpfError("need m >= 2 and u >= 1")
    ports = check_ports(ports)
    delta_avg = np.asarray(delta_avg, dtype=np.float64)
    if (delta_avg < 0.0).any():
        raise CpfError(f"simulation error must be >= 0, got {delta_avg.min()}")
    # The exponent in floats, since 4 u ports can exceed the int64 range.
    # float_power takes the scalar pow per element, as Python's ``**`` does;
    # np.power's vectorised loop can be an ulp off it.
    exponent = 4 * u * ports.astype(np.float64)
    return (m - 1) / (2.0 * m) * np.float_power(choi_fidelity, exponent) - u * delta_avg / 2.0


def cpf_nonadaptive_fidelity_lb(choi_fidelity: float, m: int, u: int) -> BoundReport:
    """Lower bound for block (non-adaptive) strategies: one port, no simulation penalty.

    :func:`cpf_fidelity_lb_values` at ``ports = 1`` and ``delta_avg = 0``.
    """
    value = cpf_fidelity_lb_values(choi_fidelity, m, u, 1, 0.0)
    return BoundReport(value, KIND_LOWER, "cpf_nonadaptive_fidelity_lb",
                       {"choi_fidelity": float(choi_fidelity), "m": int(m), "u": int(u)})


class MOptimizationResult(Frozen):
    """Outcome of maximizing a bound over the simulation port count.

    ``evaluations`` is the read-only int64 array of the port counts the
    search evaluated, in evaluation order; ``best_ports`` must be among them.
    """

    __slots__ = ("best_ports", "best_value", "evaluations")

    def __init__(self, best_ports: int, best_value: float, evaluations):
        evaluations = np.array(evaluations, dtype=np.int64)
        evaluations.flags.writeable = False
        if not (evaluations == best_ports).any():
            raise CpfError(f"best_ports {best_ports} is not among the evaluated port counts")
        object.__setattr__(self, "best_ports", best_ports)
        object.__setattr__(self, "best_value", best_value)
        object.__setattr__(self, "evaluations", evaluations)


# Largest port count the optimizer accepts: beyond 2**53 the float grid
# points stop being exact integers.
MAX_PORTS = 2**53

GRID_POINTS = 200  # of the optimizer's first-stage geometric grid


def optimize_over_M(bound_fn, ports_range=(1, 10**6), breakpoints=()) -> MOptimizationResult:
    """Maximize a bound over integer port counts.

    ``bound_fn`` maps an int64 array of port counts to the bound at each of
    them (anything that broadcasts to the array's shape, so a constant works
    too).  Each search stage is one call on ports not evaluated yet: a
    ``GRID_POINTS`` geometric grid (endpoints and the ``breakpoints`` inside
    the range included), then 64-point geometric zooms into the window
    between the evaluated neighbors of the running argmax until it holds at
    most 2000 unevaluated ports, which the last call scans.  No port
    strictly inside that window but the argmax has been evaluated, so the
    window is all the search keeps.  Ties prefer fewer ports.  The search is
    local: exact when the grid's best point neighbors the global maximum, as
    for unimodal bounds and for bounds non-increasing between breakpoints
    (step-function prefactors).  The simulation-based bounds here are not
    unimodal: past their maximum they fall to a trough, then rise toward 0
    from below as the ``1/ports`` penalty fades; tests compare the search
    with a scan of every port.  Ranges beyond ``MAX_PORTS`` are refused, and
    so is a NaN bound, which has no place in that order.
    """
    lo, hi = int(ports_range[0]), int(ports_range[1])
    if lo < 1 or hi < lo:
        raise CpfError(f"invalid port range ({lo}, {hi})")
    if hi > MAX_PORTS:
        raise CpfError(f"port range ends at {hi}, beyond the largest exact grid point 2**53")
    evaluations = []

    def ev(ports):
        values = np.broadcast_to(np.asarray(bound_fn(ports), dtype=np.float64), ports.shape)
        if np.isnan(values).any():
            raise CpfError(f"bound is NaN at {int(ports[np.isnan(values)][0])} ports")
        evaluations.append(ports)
        return values

    def geometric(left, right, num):  # non-decreasing, from left to right
        return np.clip(np.rint(np.geomspace(left, right, num=num)).astype(np.int64), lo, hi)

    def window(ports, values):  # the first maximum (ties prefer fewer ports) and its neighbors
        i = int(np.argmax(values))
        return ports[max(i - 1, 0):i + 2], values[max(i - 1, 0):i + 2], min(i, 1)

    grid = {lo, hi, *geometric(lo, hi, min(GRID_POINTS, hi - lo + 1)).tolist()}
    ports = np.array(sorted(grid.union(int(p) for p in breakpoints if lo <= p <= hi)), np.int64)
    ports, values, i = window(ports, ev(ports))
    for _ in range(60):
        left, best, right = ports[0], ports[i], ports[-1]
        missing = right - left + 1 - len(ports)
        if missing <= 0:
            break
        fresh = (np.arange(left + 1, right, dtype=np.int64) if missing <= 2000
                 else geometric(left, right, 64))
        fresh = fresh[(np.diff(fresh, prepend=left) > 0) & (fresh < right) & (fresh != best)]
        k = int(np.searchsorted(fresh, best))  # left < fresh[:k] < best < fresh[k:] < right
        ports = np.concatenate((ports[:i], np.insert(fresh, k, best), ports[i + 1:]))
        values = np.concatenate((values[:i], np.insert(ev(fresh), k, values[i]), values[i + 1:]))
        ports, values, i = window(ports, values)
    return MOptimizationResult(best_ports=int(ports[i]), best_value=float(values[i]),
                               evaluations=np.concatenate(evaluations))
