"""Bounds for locating one anomalous channel among ``m`` positions.

A position-finding instance is specified by a background channel occupying
``m - 1`` cells and a target channel occupying the remaining one, with a
flat prior over positions.  Probing every cell ``u`` times with arbitrary
adaptive, entangled strategies admits a lower bound built from channel
simulation: replace each cell by an ``M``-port teleportation simulation,
collect the resulting block states (tensor powers of cell Choi matrices),
and pay a continuity penalty ``u/2`` times the accumulated simulation
error.  This module provides the ensemble construction, the continuity
arithmetic, fidelity-based evaluations of the block bound, the port-count
optimization, and the block ensemble of any Kraus family for the iterative
Helstrom solver.

Block states never touch the ambient ``dim**(m u)`` space.  Hypothesis
``n`` is ``W_n W_n†`` with ``W_n`` the tensor product of per-cell Kraus
vectors, and the cyclic cell shift maps ``W_n`` to ``W_{n+1}``, so the Gram
matrix of all hypotheses is block-circulant, ``W_n† W_n' = C_{n'-n}``, and
the states follow from it in a basis of their joint support.  For damping
cells the square-root-measurement error needs no states at all: see
:func:`chandisc.qadc.qadc_cpf_block_pgm`.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .channels import KrausChannel, choi, kraus_vectors
from .discrimination import (KIND_LOWER, BoundReport, StateEnsemble,
                             fidelity_lower_bound, helstrom_iterative)
from .linalg import ChandiscError, DensityMatrix, fidelity, gram_states, kron_power, tensor_all


class CpfError(ChandiscError):
    """Raised for invalid position-finding specifications."""


@dataclasses.dataclass(frozen=True, eq=False)
class CpfSpec:
    """One anomalous ``target`` cell among ``m``, the rest ``background``."""

    background: KrausChannel
    target: KrausChannel
    m: int
    u: int

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "u", int(self.u))
        if self.m < 2:
            raise CpfError(f"need m >= 2 cells, got {self.m}")
        if self.u < 1:
            raise CpfError(f"need u >= 1 uses, got {self.u}")
        same_in = self.background.dim_in == self.target.dim_in
        same_out = self.background.dim_out == self.target.dim_out
        if not (same_in and same_out):
            raise CpfError("background and target channels must share dimensions")


def build_cpf_choi_ensemble(spec: CpfSpec, max_dim: int = 4096) -> StateEnsemble:
    """The ``m`` hypothesis states built from single-use cell Choi matrices.

    Dense, in the ambient space: the small-size reference for the
    Gram-space routes.  Hypothesis ``n`` places the target Choi matrix in slot ``n`` (ascending
    slot order, first factor most significant) and the background Choi in
    every other slot.  The ensemble is equiprobable and geometrically
    uniform: the cyclic shift of :func:`cyclic_shift` maps hypothesis ``n``
    to ``n + 1 mod m``.
    """
    bg = choi(spec.background).mat
    tg = choi(spec.target).mat
    if bg.shape[0] ** spec.m > max_dim:
        raise CpfError(
            f"ambient dimension {bg.shape[0]}**{spec.m} exceeds guard {max_dim}; "
            f"use the compressed ensemble")
    states = []
    for n in range(spec.m):
        factors = [bg] * spec.m
        factors[n] = tg
        states.append(DensityMatrix(tensor_all(factors)))
    return StateEnsemble.equiprobable(states)


def cyclic_shift(cell_dim: int, m: int) -> np.ndarray:
    """Permutation matrix rotating ``m`` cells of size ``cell_dim`` up one slot."""
    cell_dim = int(cell_dim)
    m = int(m)
    if cell_dim < 1 or m < 1:
        raise CpfError("cell_dim and m must be positive")
    dim = cell_dim**m
    old = np.arange(dim)
    new = (old % cell_dim) * cell_dim ** (m - 1) + old // cell_dim
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[new, old] = 1.0
    return mat


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


def general_fidelity_lb(ensemble: StateEnsemble, u: int, ports: int,
                        delta_avg: float) -> BoundReport:
    """Adaptive lower bound from pairwise fidelities of single-use states.

    Lower-bounds the block error of ``u * ports``-fold tensor powers via
    pairwise fidelities (which exponentiate across tensor products), then
    subtracts the continuity penalty:

        ``sum_{k<k'} p_k p_k' F(rho_k, rho_k')**(2 u ports) - u * delta_avg / 2``.
    """
    u = int(u)
    ports = int(ports)
    if u < 1 or ports < 1:
        raise CpfError("need u >= 1 and ports >= 1")
    delta_avg = float(delta_avg)
    if delta_avg < 0.0:
        raise CpfError(f"simulation error must be >= 0, got {delta_avg}")
    total = 0.0
    for i in range(ensemble.m):
        for j in range(i + 1, ensemble.m):
            pair = fidelity(ensemble.states[i], ensemble.states[j])
            total += ensemble.priors[i] * ensemble.priors[j] * pair ** (2 * u * ports)
    value = total - u * delta_avg / 2.0
    return BoundReport(value, KIND_LOWER, "general_fidelity_lb",
                       {"u": u, "ports": ports, "delta_avg": delta_avg, "m": ensemble.m})


def check_ports(ports, error=CpfError) -> np.ndarray:
    """``ports`` as an int64 array, raising ``error`` unless every count is >= 1."""
    try:
        ports = np.asarray(ports, dtype=np.int64)
    except OverflowError:
        raise error(f"port counts must fit in int64, got {ports}") from None
    if (ports < 1).any():
        raise error(f"need ports >= 1, got {ports.min()}")
    return ports


def cpf_fidelity_lb_values(choi_fidelity: float, m: int, u: int, ports,
                           delta_avg) -> np.ndarray:
    """Position-finding specialization of :func:`general_fidelity_lb`.

    Two hypotheses differ in exactly two slots (background vs target either
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


def cpf_fidelity_lb(choi_fidelity: float, m: int, u: int, ports: int,
                    delta_avg: float) -> BoundReport:
    """:func:`cpf_fidelity_lb_values` at one port count, as a report."""
    value = cpf_fidelity_lb_values(choi_fidelity, m, u, int(ports), delta_avg)
    return BoundReport(value, KIND_LOWER, "cpf_fidelity_lb",
                       {"choi_fidelity": float(choi_fidelity), "m": int(m), "u": int(u),
                        "ports": int(ports), "delta_avg": float(delta_avg)})


def cpf_nonadaptive_fidelity_lb(choi_fidelity: float, m: int, u: int) -> BoundReport:
    """Lower bound for block (non-adaptive) strategies, no simulation penalty."""
    choi_fidelity = float(choi_fidelity)
    if not 0.0 <= choi_fidelity <= 1.0:
        raise CpfError(f"fidelity must lie in [0, 1], got {choi_fidelity}")
    m = int(m)
    u = int(u)
    if m < 2 or u < 1:
        raise CpfError("need m >= 2 and u >= 1")
    value = (m - 1) / (2.0 * m) * choi_fidelity ** (4 * u)
    return BoundReport(value, KIND_LOWER, "cpf_nonadaptive_fidelity_lb",
                       {"choi_fidelity": choi_fidelity, "m": m, "u": u})


@dataclasses.dataclass(frozen=True)
class MOptimizationResult:
    """Outcome of maximizing a bound over the simulation port count."""

    best_ports: int
    best_value: float
    evaluations: tuple

    def __post_init__(self):
        values = [v for _, v in self.evaluations]
        if not values or max(values) != self.best_value:
            raise CpfError("best_value must be the maximum over the evaluations")


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
    are the breakpoints.  Ranges beyond ``MAX_PORTS`` are refused.
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


def _circulant_terms(spec: CpfSpec, max_rank: int) -> np.ndarray:
    """The blocks ``C_k = W_0† W_k``, stacked along the first axis.

    ``W_n`` is the tensor product, over cells and uses, of the Kraus
    vectors of hypothesis ``n`` (target in cell ``n``), its columns
    labelled relative to the target: ``W_n = S^n W_0`` for the cyclic cell
    shift ``S``, so the Kraus index that ``W_0`` attaches to cell ``j``,
    ``W_n`` attaches to cell ``j + n``.  Then ``W_n† W_n' = C_{n'-n}``.
    Row cell ``l`` of ``C_k`` meets column cell ``l - k``, so ``C_k`` is a
    Kronecker product of per-cell Grams with its column cells rotated.
    Raises before allocating anything when the side
    ``r_t**u r_b**((m-1) u)`` exceeds ``max_rank``.
    """
    m, u = spec.m, spec.u
    ranks = {"t": len(spec.target.kraus), "b": len(spec.background.kraus)}
    # Capped exponents decide the same way: 2**64 exceeds any usable guard.
    side = ranks["t"] ** min(u, 64) * ranks["b"] ** min((m - 1) * u, 64)
    if side > max_rank:
        raise CpfError(f"Gram block side {side} exceeds guard {max_rank}")
    vecs = {"t": kraus_vectors(spec.target), "b": kraus_vectors(spec.background)}
    cell_grams = {(x, y): kron_power(vecs[x].conj().T @ vecs[y], u)
                  for x in vecs for y in vecs}
    labels = ["t"] + ["b"] * (m - 1)
    terms = []
    for k in range(m):
        term = functools.reduce(np.kron, [cell_grams[labels[l], labels[(l - k) % m]]
                                          for l in range(m)])
        term = term.reshape([side] + [ranks[labels[(l - k) % m]] ** u for l in range(m)])
        term = term.transpose([0] + [1 + (j + k) % m for j in range(m)])
        terms.append(term.reshape(side, side))
    return np.stack(terms)


def compressed_cpf_ensemble(spec: CpfSpec, max_rank: int = 2048) -> StateEnsemble:
    """The ``u``-fold block ensemble, in an orthonormal basis of its joint support.

    Equivalent for every discrimination quantity to the ``u``-th tensor
    powers of the hypothesis Choi states: :func:`~chandisc.linalg.gram_states`
    of the block-circulant Gram matrix.  Raises before allocating once its
    side ``m r**(m u)`` exceeds ``max_rank``.
    """
    m = spec.m
    terms = _circulant_terms(spec, max_rank // m)
    gram = np.block([[terms[(k - n) % m] for k in range(m)] for n in range(m)])
    states = gram_states(gram, [terms.shape[1]] * m)
    return StateEnsemble.equiprobable([DensityMatrix(s, validate=False) for s in states])


def cpf_helstrom_iterative(spec: CpfSpec, tol: float = 1e-8, max_iters: int = 5000,
                           dim_guard: int = 256, max_rank: int = 2048):
    """Minimum block error of the compressed block ensemble, with certificate.

    Returns the same ``(report, povm, gap)`` triple as
    :func:`~chandisc.discrimination.helstrom_iterative`.
    """
    ensemble = compressed_cpf_ensemble(spec, max_rank=max_rank)
    return helstrom_iterative(ensemble, tol=tol, max_iters=max_iters, dim_guard=dim_guard)


def cpf_block_fidelity_lb(spec: CpfSpec, max_rank: int = 2048) -> BoundReport:
    """Pairwise-fidelity lower bound evaluated on the compressed block states.

    Cross-check route for :func:`cpf_nonadaptive_fidelity_lb`: instead of
    exponentiating the Choi fidelity analytically, this measures the
    pairwise fidelities of the actual ``u``-fold states and feeds them to
    the general mixed-state bound.
    """
    report = fidelity_lower_bound(compressed_cpf_ensemble(spec, max_rank=max_rank))
    return BoundReport(report.value, KIND_LOWER, "cpf_block_fidelity_lb",
                       {"m": spec.m, "u": spec.u})
