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
continuity bound, the fidelity bounds on the block error, and the
port-count optimization.

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


def theorem1_lower_bound(block_error: float, u: int, delta_avg: float) -> BoundReport:
    """Adaptive-strategy lower bound from a block error and a simulation error.

    If the prior-averaged per-use simulation error is ``delta_avg``, any
    adaptive protocol with ``u`` uses errs at least

        ``block_error - u * delta_avg / 2``

    where ``block_error`` is the minimum error of the simulated block
    ensemble.  The value is reported raw; it may be negative when vacuous.
    """
    block_error = float(block_error)
    if not 0.0 <= block_error <= 1.0:
        raise CpfError(f"block error must lie in [0, 1], got {block_error}")
    u = int(u)
    if u < 1:
        raise CpfError(f"need u >= 1, got {u}")
    delta_avg = float(delta_avg)
    if delta_avg < 0.0:
        raise CpfError(f"simulation error must be >= 0, got {delta_avg}")
    return BoundReport(block_error - u * delta_avg / 2.0, KIND_LOWER,
                       "adaptive_continuity_lb",
                       {"block_error": block_error, "u": u, "delta_avg": delta_avg})


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
    """Outcome of maximizing a bound over the simulation port count."""

    __slots__ = ("best_ports", "best_value", "evaluations")

    def __init__(self, best_ports: int, best_value: float, evaluations: tuple):
        values = [v for _, v in evaluations]
        if not values or max(values) != best_value:
            raise CpfError("best_value must be the maximum over the evaluations")
        object.__setattr__(self, "best_ports", best_ports)
        object.__setattr__(self, "best_value", best_value)
        object.__setattr__(self, "evaluations", evaluations)


# Largest port count the optimizer accepts: beyond 2**53 the float grid
# points stop being exact integers.
MAX_PORTS = 2**53


def optimize_over_M(bound_fn, ports_range=(1, 10**6), grid_points: int = 200,
                    breakpoints=()) -> MOptimizationResult:
    """Maximize a bound over integer port counts.

    ``bound_fn`` maps an int64 array of port counts to the bound at each of
    them (anything that broadcasts to the array's shape, so a constant
    works too).  Each search stage is one call on the ports it has not
    evaluated yet: first a geometric grid (endpoints and the
    ``breakpoints`` inside the range always included), then a 64-point
    geometric zoom into the window between the evaluated neighbors of the
    running argmax, repeated until the window holds at most 2000
    unevaluated ports, which the last call scans exhaustively.  Ties prefer
    the smaller port count.  The returned optimum is the exact integer
    maximum for bounds that are unimodal in the port count, as the
    simulation-based bounds here are with the default simulation prefactor,
    and for bounds that are non-increasing from each breakpoint to the
    next, as they are with a tabulated step-function prefactor whose knots
    are the breakpoints.  Ranges beyond ``MAX_PORTS`` are refused, and so
    is a NaN bound, which has no place in the order the search relies on.
    """
    lo, hi = int(ports_range[0]), int(ports_range[1])
    if lo < 1 or hi < lo:
        raise CpfError(f"invalid port range ({lo}, {hi})")
    if hi > MAX_PORTS:
        raise CpfError(f"port range ends at {hi}, beyond the largest exact grid point 2**53")
    grid_points = int(grid_points)
    if grid_points < 2:
        raise CpfError(f"need at least 2 grid points, got {grid_points}")

    evaluated = {}

    def ev(candidates):
        fresh = [p for p in dict.fromkeys(candidates) if p not in evaluated]
        if fresh:
            ports = np.array(fresh, dtype=np.int64)
            values = np.broadcast_to(np.asarray(bound_fn(ports), dtype=np.float64), ports.shape)
            if np.isnan(values).any():
                raise CpfError(f"bound is NaN at {int(ports[np.isnan(values)][0])} ports")
            evaluated.update(zip(fresh, values.tolist()))

    def geometric(left, right, num):
        points = np.rint(np.geomspace(left, right, num=num)).astype(np.int64)
        return np.clip(points, lo, hi).tolist()

    inside = {int(p) for p in breakpoints if lo <= p <= hi}
    ev(sorted(set(geometric(lo, hi, min(grid_points, hi - lo + 1))) | {lo, hi} | inside))

    for _ in range(60):
        best_value = max(evaluated.values())
        best_ports = min(p for p, v in evaluated.items() if v == best_value)
        known = sorted(evaluated)
        pos = known.index(best_ports)
        left = known[pos - 1] if pos > 0 else best_ports
        right = known[pos + 1] if pos + 1 < len(known) else best_ports
        # left and right are neighbours of best_ports in ``known``
        missing = right - left - 1 - int(left < best_ports < right)
        if missing <= 0:
            break
        if missing <= 2000:
            ev(range(left + 1, right))
            break
        ev(geometric(left, right, 64))

    best_value = max(evaluated.values())
    best_ports = min(p for p, v in evaluated.items() if v == best_value)
    return MOptimizationResult(best_ports=best_ports, best_value=best_value,
                               evaluations=tuple(sorted(evaluated.items())))
