"""Independent routes that the tests compare the package with.

* ``string_histogram``/``h_mu_strings``: plain-numpy enumeration of all
  ``2**(u*m)`` outcome strings, collapsed into a histogram of per-cell
  weight profiles ``(min, max, total)``;
* ``cpf_ml_exact``: exact rational arithmetic over every per-cell weight
  vector, with the maximum likelihood taken hypothesis by hypothesis;
* ``weight_vector_success``: the same per-vector sum in floating point,
  directly or from log-likelihoods, for sizes the rationals cannot reach;
* ``mp_block_gram``/``mp_gram_errors``: the Gram matrix of damping block
  hypotheses, entry by entry, and its square-root-measurement and Helstrom
  errors, all in mpmath precision with no eigenvalue cut;
* ``mp_pair_blocks``: the same errors for a damping pair, from the 2×2
  blocks of its Gram matrix, each decomposed numerically;
* ``mp_weight_vector_pgm``: the position-finding square-root-measurement
  error from the ``m × m`` blocks of every unsorted per-cell weight vector;
* ``mp_binary_error``: the binary counting error ``1/2 sum_k min(P0(k), P1(k))``
  over binomial masses computed term by term in mpmath precision;
* ``nulling_count_sum``: the nulling receiver's error as a sum over all
  ``C(u+3, 3)`` four-outcome count vectors with multinomial weights;
* ``mp_nulling_error``: the same error in mpmath precision, over the
  outcome-3 count of the probes that give no outcome 0;
* ``staged_search``: a staged numeric search over port counts (geometric
  grid, zooms, exhaustive last window), a second route to the port optimum
  that ``chandisc.cpf.argmax_ports`` reads off the bound's stationary points;
* ``pbt_pair_adaptive_lb``/``pbt_position_finding_adaptive_lb``: the
  port-based adaptive lower bounds at one port count, in plain ``math``
  floats, with ``step_xi`` for a tabulated simulation prefactor;
* ``build_cpf_choi_ensemble``/``cyclic_shift``: the position-finding
  hypotheses as dense tensor products of cell Choi matrices in the ambient
  space, and the cell rotation that maps each to the next;
* ``dense_block_ensemble``: their ``u``-fold tensor powers, in a basis of
  the joint support of the single-use states;
* ``partial_trace``, ``fidelity`` and ``success_probability``: dense
  references for Choi marginals, Uhlmann fidelities and the success of a
  given measurement;
* ``fidelity_lower_bound``/``general_fidelity_lb``/``cpf_block_fidelity_lb``:
  the pairwise-fidelity lower bounds measured on single-use or ``u``-fold
  dense states, built from ``fidelity`` and the package's dense states in
  ``chandisc.discrimination``.

None shares code with the order-statistic formula in ``chandisc.orc`` or
with the Gram routes, binomial sums and port-count arrays in
``chandisc.cpf`` and ``chandisc.qadc``.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from chandisc.channels import choi
from chandisc.discrimination import DensityMatrix, StateEnsemble, tensor_all
from chandisc.linalg import KIND_LOWER, MAX_COUNT, BoundReport, ChandiscError

_CHUNK = 1 << 20


@functools.lru_cache(maxsize=None)
def string_histogram(m: int, u: int) -> np.ndarray:
    """Counts of (min, max, total) block-weight profiles over all bit strings.

    Every string of ``m`` blocks of ``u`` bits is classified by its smallest
    and largest block Hamming weight and its total weight; the result has
    shape ``(u+1, u+1, u*m+1)``, sums to ``2**(u*m)`` and is read-only.
    """
    size = 1 << (u * m)
    mask = np.uint64((1 << u) - 1)
    side = (u + 1) * (u + 1) * (u * m + 1)
    flat = np.zeros(side, dtype=np.int64)
    for start in range(0, size, _CHUNK):
        xs = np.arange(start, min(start + _CHUNK, size), dtype=np.uint64)
        weights = np.empty((xs.size, m), dtype=np.int64)
        for cell in range(m):
            block = (xs >> np.uint64(cell * u)) & mask
            weights[:, cell] = np.bitwise_count(block).astype(np.int64)
        wmin = weights.min(axis=1)
        wmax = weights.max(axis=1)
        total = weights.sum(axis=1)
        key = (wmin * (u + 1) + wmax) * (u * m + 1) + total
        flat += np.bincount(key, minlength=side)
    counts = flat.reshape(u + 1, u + 1, u * m + 1)
    counts.setflags(write=False)
    return counts


def _powers(q: float, top: int) -> np.ndarray:
    # [q**0, q**1, .., q**top] with the 0**0 = 1 convention.
    out = np.ones(top + 1)
    for k in range(1, top + 1):
        out[k] = out[k - 1] * q
    return out


def h_mu_strings(q_b, q_t, m, u) -> float:
    """Position-finding error by enumerating every outcome string.

    The maximum-likelihood receiver names the cell with the largest damage
    count when ``q_t >= q_b`` and the smallest otherwise, so a string's
    best likelihood depends only on its weight profile.
    """
    counts = string_histogram(m, u)
    w_min, w_max, total = counts.nonzero()
    mult = counts[w_min, w_max, total].astype(np.float64)
    w_star = w_max if q_t >= q_b else w_min
    target = _powers(q_t, u) * _powers(1.0 - q_t, u)[::-1]
    top = (m - 1) * u
    background = _powers(q_b, top) * _powers(1.0 - q_b, top)[::-1]
    best = float(np.sum(mult * target[w_star] * background[total - w_star]))
    return 1.0 - best / m


def cpf_ml_exact(q_b, q_t, m, u):
    """Position-finding error by brute likelihood over all outcome strings."""
    q_b, q_t = Fraction(q_b), Fraction(q_t)
    success = Fraction(0)
    for weights in itertools.product(range(u + 1), repeat=m):
        mult = 1
        for w in weights:
            mult *= math.comb(u, w)
        best = Fraction(0)
        for n in range(m):
            like = Fraction(1)
            for l, w in enumerate(weights):
                q = q_t if l == n else q_b
                like *= q**w * (1 - q) ** (u - w)
            best = max(best, like)
        success += mult * best
    return 1 - success / m


def weight_vector_success(q_b, q_t, m, u, log: bool = False) -> float:
    """Maximum-likelihood success sum, visiting every per-cell weight vector.

    Sums ``prod_l C(u, w_l) * max_n P(w | target in n)`` over all
    ``(u+1)**m`` weight vectors ``w`` in floating point, one vector at a
    time; with ``log`` each term is built from log-likelihoods and
    exponentiated last.  Any ``m >= 1`` is accepted.
    """

    def _log(q):
        return math.log(q) if q > 0.0 else -math.inf

    total = 0.0
    for weights in itertools.product(range(u + 1), repeat=m):
        if log:
            log_mult = sum(math.lgamma(u + 1) - math.lgamma(w + 1) - math.lgamma(u - w + 1)
                           for w in weights)
            best = -math.inf
            for n in range(m):
                like = 0.0
                for l, w in enumerate(weights):
                    q = q_t if l == n else q_b
                    like += (w * _log(q) if w else 0.0) + ((u - w) * _log(1.0 - q) if u - w else 0.0)
                best = max(best, like)
            total += math.exp(log_mult + best)
        else:
            mult = 1
            for w in weights:
                mult *= math.comb(u, w)
            best = 0.0
            for n in range(m):
                like = 1.0
                for l, w in enumerate(weights):
                    q = q_t if l == n else q_b
                    like *= q**w * (1.0 - q) ** (u - w)
                best = max(best, like)
            total += mult * best
    return total


def _mp_qadc_vectors(mp, q):
    # vec(K_i) / sqrt(2) of the damping Kraus operators, row-major, at mp precision.
    q = mp.mpf(q)
    scale = 1 / mp.sqrt(2)
    return [[scale, 0, 0, scale * mp.sqrt(1 - q)], [0, scale * mp.sqrt(q), 0, 0]]


def _mp_cell_gram(mp, qa, qb):
    va, vb = _mp_qadc_vectors(mp, qa), _mp_qadc_vectors(mp, qb)
    return [[mp.fsum(x * y for x, y in zip(a, b)) for b in vb] for a in va]


def mp_block_gram(mp, hypotheses, u):
    """Prior-weighted Gram matrix of damping block hypotheses, entry by entry.

    ``hypotheses[n]`` lists the damping parameter of every cell under
    hypothesis ``n``.  Column ``(n, i)`` is the tensor product of the Kraus
    vectors selected by the multi-index ``i`` (cells major, uses minor),
    and ``<(n, i), (n', j)> = prod_{cell, use} g[i_cu, j_cu]`` with the
    per-use Gram of the two cells' channels.
    """
    cells = len(hypotheses[0])
    grams = {}
    for qs in hypotheses:
        for qt in hypotheses:
            for a, b in zip(qs, qt):
                grams.setdefault((a, b), _mp_cell_gram(mp, a, b))
    indices = list(itertools.product(range(2), repeat=cells * u))
    side = len(hypotheses) * len(indices)
    gram = mp.matrix(side, side)
    prior = mp.mpf(1) / len(hypotheses)
    for n, qs in enumerate(hypotheses):
        for n2, qt in enumerate(hypotheses):
            for i, left in enumerate(indices):
                for j, right in enumerate(indices):
                    val = prior
                    for pos, (x, y) in enumerate(zip(left, right)):
                        cell = pos // u
                        val *= grams[qs[cell], qt[cell]][x][y]
                    gram[n * len(indices) + i, n2 * len(indices) + j] = val
    return gram


def mp_gram_errors(mp, gram, blocks):
    """Square-root-measurement error and, for two blocks, the Helstrom error.

    ``gram`` is the prior-weighted Gram matrix of ``blocks`` equal column
    blocks, in mpmath precision: no eigenvalue is cut.  The PGM error is
    ``1 - sum_n ||(√G)_nn||_F**2``; the Helstrom error is
    ``(1 - ||√G J √G||_1) / 2`` with ``J = ±1`` on the two blocks.  In
    both, ``1`` stands for the trace of ``G``, so that a direct summand of a
    Gram matrix gives its share of the errors.
    """
    side = gram.rows
    size = side // blocks
    total = mp.fsum(gram[i, i] for i in range(side))
    values, vectors = mp.eigsy(gram)
    roots = [mp.sqrt(max(values[k], 0)) for k in range(side)]
    root = mp.matrix(side, side)
    for i in range(side):
        for j in range(i, side):
            root[i, j] = root[j, i] = mp.fsum(vectors[i, k] * roots[k] * vectors[j, k]
                                             for k in range(side))
    success = mp.fsum(root[i, j] ** 2 for n in range(blocks)
                      for i in range(n * size, (n + 1) * size)
                      for j in range(n * size, (n + 1) * size))
    pgm = total - success
    if blocks != 2:
        return pgm, None
    signed = mp.matrix(side, side)
    for i in range(side):
        for j in range(side):
            signed[i, j] = mp.fsum(root[i, k] * (1 if k < size else -1) * root[k, j]
                                   for k in range(side))
    spread = mp.eigsy(signed, eigvals_only=True)
    helstrom = (total - mp.fsum(abs(spread[k]) for k in range(side))) / 2
    return pgm, helstrom


def mp_pair_blocks(mp, q0, q1, u):
    """Square-root-measurement and Helstrom errors of a damping block pair.

    The per-use Grams of two damping channels are diagonal, so the pair Gram
    of ``mp_block_gram(mp, [[q0], [q1]], u)`` is a direct sum of 2×2
    blocks, one per Kraus multi-index; an index with ``w`` decay operators
    has entries ``g_ab[0][0]**(u-w) * g_ab[1][1]**w / 2``.  Each of the
    ``u + 1`` distinct blocks is decomposed by ``mp_gram_errors``, and its
    errors count ``C(u, w)`` times.
    """
    qs = (q0, q1)
    grams = [[_mp_cell_gram(mp, a, b) for b in qs] for a in qs]
    pgm = helstrom = mp.mpf(0)
    for w in range(u + 1):
        block = mp.matrix(2, 2)
        for n in range(2):
            for n2 in range(2):
                g = grams[n][n2]
                block[n, n2] = g[0][0] ** (u - w) * g[1][1] ** w / 2
        block_pgm, block_helstrom = mp_gram_errors(mp, block, 2)
        pgm += math.comb(u, w) * block_pgm
        helstrom += math.comb(u, w) * block_helstrom
    return pgm, helstrom


def mp_weight_vector_pgm(mp, q_b, q_t, m, u):
    """Square-root-measurement error of damping position finding, block by block.

    The Gram matrix of ``mp_block_gram`` for the ``m`` position hypotheses
    is a direct sum of ``m × m`` blocks, one per Kraus multi-index, whose
    entries depend only on the cells' weights ``w_c``:
    ``(1/m) prod_c g[0][0]**(u-w_c) * g[1][1]**w_c`` with ``g`` the
    per-use Gram of the channels cell ``c`` holds under the two hypotheses.
    The block of each of the ``(u+1)**m`` weight vectors is built from these
    raw products (no normalisation, no merging of equal weights) and
    decomposed by ``mp_gram_errors``; its error counts ``prod_c C(u, w_c)``
    times.
    """
    qs = (q_b, q_t)
    grams = [[_mp_cell_gram(mp, a, b) for b in qs] for a in qs]
    pgm = mp.mpf(0)
    for weights in itertools.product(range(u + 1), repeat=m):
        block = mp.matrix(m, m)
        for n in range(m):
            for n2 in range(m):
                val = mp.mpf(1) / m
                for cell, w in enumerate(weights):
                    g = grams[int(cell == n)][int(cell == n2)]
                    val *= g[0][0] ** (u - w) * g[1][1] ** w
                block[n, n2] = val
        mult = math.prod(math.comb(u, w) for w in weights)
        pgm += mult * mp_gram_errors(mp, block, m)[0]
    return pgm


def mp_binary_error(mp, q0, q1, u):
    """``1/2 sum_k min(P(k | q0), P(k | q1))`` over Binomial(u, q) masses, in mpmath.

    The masses follow from ``(1-q)**u`` by the ratio ``(u-k+1)/k * q/(1-q)``
    at the working precision, whose exponent range is unbounded, so the sum
    keeps its relative accuracy however small it is.
    """
    def pmf(q):
        if q == 1:
            return [mp.mpf(0)] * u + [mp.mpf(1)]
        q = mp.mpf(q)
        masses = [(1 - q) ** u]
        for k in range(1, u + 1):
            masses.append(masses[-1] * (u - k + 1) / k * q / (1 - q))
        return masses
    return mp.fsum(min(a, b) for a, b in zip(pmf(q0), pmf(q1))) / 2


def mp_nulling_error(mp, q0, q1, u):
    """The nulling receiver's ``(apply_q0, apply_q1)`` errors in mpmath.

    With the unitary matched to one hypothesis, that hypothesis never gives
    outcome 0 (nor does either give outcome 1), so every string with an
    outcome 0 has one zero likelihood.  The error is then half the sum over
    the outcome-3 count ``k`` of the smaller ``C(u, k) p2**(u-k) p3**k``,
    with each probe's ``p3 = q/2`` and ``p2 = 1 - q/2 - p00``,
    ``p00 = (2 - a - q - 2 sqrt((1-a)(1-q))) / (4 - 2a)`` for the applied
    parameter ``a``, all at the working precision from the float inputs.
    """
    def masses(applied, q):
        a, q = mp.mpf(applied), mp.mpf(q)
        p3 = q / 2
        p2 = 1 - p3 - (2 - a - q - 2 * mp.sqrt((1 - a) * (1 - q))) / (4 - 2 * a)
        return [mp.binomial(u, k) * p2 ** (u - k) * p3 ** k for k in range(u + 1)]
    return tuple(mp.fsum(min(x, y) for x, y in zip(masses(a, q0), masses(a, q1))) / 2
                 for a in (q0, q1))


def nulling_count_sum(probs0, probs1, u):
    """Half the summed smaller likelihood over all four-outcome count vectors.

    ``probs0``/``probs1`` are one probe's outcome distributions under the
    two hypotheses; each count vector ``c`` of ``u`` probes weighs
    ``multinomial(u; c) * prod_k p[k]**c[k]``.  The multinomial coefficient
    is converted to a float, which overflows above ``u`` of about 1000.
    """
    error = 0.0
    for c0 in range(u + 1):
        for c1 in range(u + 1 - c0):
            for c2 in range(u + 1 - c0 - c1):
                counts = (c0, c1, c2, u - c0 - c1 - c2)
                coeff = float(math.comb(u, c0) * math.comb(u - c0, c1)
                              * math.comb(u - c0 - c1, c2))
                likes = []
                for probs in (probs0, probs1):
                    like = coeff
                    for c, p in zip(counts, probs):
                        like *= p**c
                    likes.append(like)
                error += min(likes)
    return error / 2.0


GRID_POINTS = 200  # of the staged search's first-stage geometric grid


def staged_search(bound_fn, ports_range=(1, 10**6), breakpoints=()):
    """Maximize ``bound_fn`` over integer port counts by a staged search.

    A ``GRID_POINTS`` geometric grid (endpoints and the ``breakpoints``
    inside the range included), then 64-point geometric zooms into the
    window between the evaluated neighbours of the running argmax until it
    holds at most 2000 unevaluated ports, which the last stage scans.  Ties
    prefer fewer ports.  The search is local: exact when the grid's best
    point neighbours the global maximum.  Returns
    ``(best_ports, best_value, evaluated)``, ``evaluated`` mapping each
    evaluated port to its bound in evaluation order.
    """
    lo, hi = int(ports_range[0]), int(ports_range[1])
    if lo < 1 or hi < lo:
        raise ChandiscError(f"invalid port range ({lo}, {hi})")
    if hi > MAX_COUNT:
        raise ChandiscError(f"port range ends at {hi}, beyond the largest exact grid point 2**53")

    evaluated = {}

    def ev(candidates):
        fresh = [p for p in dict.fromkeys(candidates) if p not in evaluated]
        if fresh:
            ports = np.array(fresh, dtype=np.int64)
            values = np.broadcast_to(np.asarray(bound_fn(ports), dtype=np.float64), ports.shape)
            if np.isnan(values).any():
                raise ChandiscError(f"bound is NaN at {int(ports[np.isnan(values)][0])} ports")
            evaluated.update(zip(fresh, values.tolist()))

    def geometric(left, right, num):
        points = np.rint(np.geomspace(left, right, num=num)).astype(np.int64)
        return np.clip(points, lo, hi).tolist()

    inside = {int(p) for p in breakpoints if lo <= p <= hi}
    ev(sorted(set(geometric(lo, hi, min(GRID_POINTS, hi - lo + 1))) | {lo, hi} | inside))

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
    return best_ports, best_value, evaluated


def _damping_sim_error(q, xi):
    # port-based simulation error of one damping channel
    return xi * ((1.0 - q) / 2.0 + math.sqrt(1.0 - q))


def pbt_pair_adaptive_lb(fid, q0, q1, u, ports, xi):
    """``(1 - u (Δ_0 + Δ_1) - sqrt(1 - F**(2 u M))) / 2`` at ``M = ports``.

    ``fid`` is the Choi fidelity of the two damping channels and
    ``Δ = xi ((1 - q)/2 + sqrt(1 - q))`` the simulation error of each.
    """
    delta = _damping_sim_error(q0, xi) + _damping_sim_error(q1, xi)
    block = fid ** (u * ports)
    return (1.0 - u * delta - math.sqrt(max(0.0, 1.0 - block * block))) / 2.0


def pbt_position_finding_adaptive_lb(fid, q_b, q_t, m, u, ports, xi):
    """``(m-1)/(2m) F**(4 u M) - u ((m-1) Δ_b + Δ_t) / 2`` at ``M = ports``."""
    delta = (m - 1) * _damping_sim_error(q_b, xi) + _damping_sim_error(q_t, xi)
    return (m - 1) / (2.0 * m) * fid ** (4 * u * ports) - u * delta / 2.0


def step_xi(knots, ports):
    """Value of the last ``(port count, value)`` knot at or below ``ports``.

    The first knot's value holds below it; ``knots`` are sorted by port count.
    """
    at = bisect.bisect_right([p for p, _ in knots], ports) - 1
    return knots[max(at, 0)][1]


def build_cpf_choi_ensemble(background, target, m: int, max_dim: int = 4096) -> StateEnsemble:
    """The ``m`` hypothesis states built from single-use cell Choi matrices.

    Dense, in the ambient space: the small-size reference for the
    Gram-space routes.  Hypothesis ``n`` places the target Choi matrix in slot ``n`` (ascending
    slot order, first factor most significant) and the background Choi in
    every other slot.  The ensemble is equiprobable and geometrically
    uniform: the cyclic shift of :func:`cyclic_shift` maps hypothesis ``n``
    to ``n + 1 mod m``.
    """
    bg = choi(background).mat
    tg = choi(target).mat
    if bg.shape[0] ** m > max_dim:
        raise ChandiscError(f"ambient dimension {bg.shape[0]}**{m} exceeds guard {max_dim}")
    states = []
    for n in range(m):
        factors = [bg] * m
        factors[n] = tg
        states.append(DensityMatrix(tensor_all(factors)))
    return StateEnsemble.equiprobable(states)


def dense_block_ensemble(background, target, m: int, u: int) -> StateEnsemble:
    """Explicit ``u``-fold tensor powers of the single-use hypothesis states.

    The single-use states are first restricted to their joint support,
    which contains every state, so the powers live in ``(support)^{⊗u}``
    instead of the full ambient space; every discrimination quantity is
    unchanged.
    """
    states = [s.mat for s in build_cpf_choi_ensemble(background, target, m).states]
    w, v = np.linalg.eigh(sum(states))
    basis = v[:, w > 1e-12]
    small = [basis.conj().T @ s @ basis for s in states]
    return StateEnsemble.equiprobable([tensor_all([s] * u) for s in small])


def cyclic_shift(cell_dim: int, m: int) -> np.ndarray:
    """Permutation matrix rotating ``m`` cells of size ``cell_dim`` up one slot."""
    cell_dim = int(cell_dim)
    m = int(m)
    if cell_dim < 1 or m < 1:
        raise ChandiscError("cell_dim and m must be positive")
    dim = cell_dim**m
    old = np.arange(dim)
    new = (old % cell_dim) * cell_dim ** (m - 1) + old // cell_dim
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[new, old] = 1.0
    return mat


def partial_trace(mat, dims, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``mat`` is square on a product space with factor sizes ``dims``, first
    factor most significant (``numpy.kron`` order); the kept factors stay
    in ascending order.
    """
    n, keep = len(dims), sorted(keep)
    cols = [n + k if k in keep else k for k in range(n)]
    side = math.prod(dims[k] for k in keep)
    reduced = np.einsum(np.asarray(mat).reshape(tuple(dims) * 2), [*range(n), *cols],
                        [*keep, *(n + k for k in keep)])
    return reduced.reshape(side, side)


def _psd_sqrt(mat) -> np.ndarray:
    # square root of a Hermitian matrix, small negative eigenvalues clipped
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``tr|√ρ √σ|`` of two states, capped at 1."""
    root = _psd_sqrt(rho.mat) @ _psd_sqrt(sigma.mat)
    return min(float(np.linalg.svd(root, compute_uv=False).sum()), 1.0)


def success_probability(ensemble: StateEnsemble, povm) -> float:
    """``sum_n p_n tr(rho_n E_n)``: how often ``povm`` names the prepared state."""
    return float(sum(p * np.einsum("ij,ji->", state.mat, element).real
                     for p, state, element in zip(ensemble.priors, ensemble.states,
                                                  povm.elements)))


def fidelity_lower_bound(ensemble: StateEnsemble) -> float:
    """Pairwise-fidelity lower bound ``sum_{n<n'} p_n p_n' F(rho_n, rho_n')**2``."""
    return float(sum(ensemble.priors[i] * ensemble.priors[j]
                     * fidelity(ensemble.states[i], ensemble.states[j]) ** 2
                     for i, j in itertools.combinations(range(ensemble.m), 2)))


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
        raise ChandiscError("need u >= 1 and ports >= 1")
    delta_avg = float(delta_avg)
    if delta_avg < 0.0:
        raise ChandiscError(f"simulation error must be >= 0, got {delta_avg}")
    total = 0.0
    for i in range(ensemble.m):
        for j in range(i + 1, ensemble.m):
            pair = fidelity(ensemble.states[i], ensemble.states[j])
            total += ensemble.priors[i] * ensemble.priors[j] * pair ** (2 * u * ports)
    value = total - u * delta_avg / 2.0
    return BoundReport(value, KIND_LOWER, "general_fidelity_lb",
                       {"u": u, "ports": ports, "delta_avg": delta_avg, "m": ensemble.m})


def cpf_block_fidelity_lb(background, target, m: int, u: int) -> float:
    """Pairwise-fidelity lower bound evaluated on the dense block states.

    Cross-check route for :func:`cpf_nonadaptive_fidelity_lb`: instead of
    exponentiating the Choi fidelity analytically, this measures the
    pairwise fidelities of the actual ``u``-fold states and feeds them to
    the general mixed-state bound.
    """
    return fidelity_lower_bound(dense_block_ensemble(background, target, m, u))
