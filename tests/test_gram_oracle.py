"""Gram-space block errors against a 40-digit evaluation of the same Gram matrix.

The oracle builds every Gram entry from its product formula in mpmath and
decomposes it without any eigenvalue cut, so it shows both ways the
floating-point cut can fail at the q = 0 and q = 1 endpoints, where exact
zero and genuinely tiny eigenvalues meet:

* no cut at all keeps rounding-noise eigenvalues, whose square roots move
  the square-root measurement of ``m = 3, u = 1, q_b = 1, q_t = 0.96`` by
  about 6e-10;
* a cut of 1e-12 drops genuine eigenvalues of the damping pair at
  ``q1 = 0``, moving both errors by about 3e-13 to 6e-13.
"""

import pytest

from chandisc.qadc import qadc_block_helstrom, qadc_block_pgm, qadc_cpf_block_pgm

from _oracles import mp_block_gram, mp_gram_errors, mp_pair_blocks, mp_weight_vector_pgm

mpmath = pytest.importorskip("mpmath")

TOL = 1e-13


def _position_hypotheses(q_b, q_t, m):
    return [[q_t if cell == n else q_b for cell in range(m)] for n in range(m)]


@pytest.mark.parametrize("q_b,q_t,m,u", [
    (1.0, 0.96, 3, 1),   # rounding-noise trap
    (0.04, 0.0, 2, 2),
    (0.0, 0.3, 3, 1),
    (0.4, 0.44, 2, 2),
])
def test_position_finding_pgm_matches_mpmath(q_b, q_t, m, u):
    with mpmath.workdps(40):
        mp = mpmath.mp
        gram = mp_block_gram(mp, _position_hypotheses(q_b, q_t, m), u)
        pgm, _ = mp_gram_errors(mp, gram, m)
    assert abs(qadc_cpf_block_pgm(q_b, q_t, m, u).value - float(pgm)) < TOL


@pytest.mark.parametrize("q_b,q_t,m,u", [
    (0.44, 0.40, 2, 2),
    (1.0, 0.96, 3, 1),
    (0.0, 0.3, 3, 1),
    (0.04, 0.0, 2, 2),
])
def test_weight_vector_pgm_matches_full_gram(q_b, q_t, m, u):
    with mpmath.workdps(60):
        mp = mpmath.mp
        full, _ = mp_gram_errors(mp, mp_block_gram(mp, _position_hypotheses(q_b, q_t, m), u), m)
        blocks = mp_weight_vector_pgm(mp, q_b, q_t, m, u)
    assert abs(blocks - full) < 1e-25


@pytest.mark.parametrize("q_b,q_t,m,u", [
    (0.44, 0.40, 2, 4),   # the fig3 configurations
    (0.44, 0.40, 4, 2),
    (0.44, 0.40, 3, 3),
    (1.0, 0.96, 4, 2),
    (1.0, 0.96, 3, 1),
    (0.3, 0.9, 3, 2),
    (0.04, 0.0, 4, 2),    # the target cell never decays
    (0.0, 0.4, 3, 2),     # the background cells never decay
    (1e-310, 0.3, 3, 2),  # q_t/q_b overflows: log(x1/B1) from a difference of logs
    (0.52, 0.48, 3, 4),   # r**(m u) = 4096 and 4096 Gram columns
    (0.3, 0.5, 4, 3),
])
def test_position_finding_pgm_matches_weight_vectors(q_b, q_t, m, u):
    with mpmath.workdps(50):
        pgm = mp_weight_vector_pgm(mpmath.mp, q_b, q_t, m, u)
    assert abs(qadc_cpf_block_pgm(q_b, q_t, m, u).value - float(pgm)) < TOL


@pytest.mark.parametrize("q0,q1,u", [
    (0.008, 0.0, 5),     # genuine-eigenvalue traps
    (0.002, 0.0, 4),
    (1.0, 0.96, 3),
    (0.3, 0.34, 4),
])
def test_binary_pair_matches_mpmath(q0, q1, u):
    with mpmath.workdps(40):
        mp = mpmath.mp
        gram = mp_block_gram(mp, [[q0], [q1]], u)
        pgm, helstrom = mp_gram_errors(mp, gram, 2)
    assert abs(qadc_block_pgm(q0, q1, u).value - float(pgm)) < TOL
    assert abs(qadc_block_helstrom(q0, q1, u).value - float(helstrom)) < TOL


@pytest.mark.parametrize("q0,q1,u", [
    (0.3, 0.34, 1),
    (0.008, 0.0, 2),
    (0.0, 1.0, 3),
    (1.0, 0.96, 3),
    (0.08, 0.04, 4),
])
def test_pair_blocks_match_full_gram(q0, q1, u):
    # the rank-1 block at w = u gives the full Gram a zero eigenvalue, whose
    # rounding noise enters through its square root: 1e-30 at 60 digits
    with mpmath.workdps(60):
        mp = mpmath.mp
        full = mp_gram_errors(mp, mp_block_gram(mp, [[q0], [q1]], u), 2)
        blocks = mp_pair_blocks(mp, q0, q1, u)
    for got, want in zip(blocks, full):
        assert abs(got - want) < 1e-25


@pytest.mark.parametrize("q0,q1,u", [
    (0.08, 0.04, 8),     # a row of the default binary sweep
    (0.008, 0.0, 9),
    (1.0, 0.96, 9),
])
def test_binary_pair_matches_weight_blocks(q0, q1, u):
    with mpmath.workdps(50):
        pgm, helstrom = mp_pair_blocks(mpmath.mp, q0, q1, u)
    assert abs(qadc_block_pgm(q0, q1, u).value - float(pgm)) < TOL
    assert abs(qadc_block_helstrom(q0, q1, u).value - float(helstrom)) < TOL


@pytest.mark.parametrize("q0,q1,u,digits", [
    (0.08, 0.04, 60, 50),
    (0.08, 0.04, 500, 50),
    (0.08, 0.04, 2000, 50),
    (1.0, 0.2, 1200, 330),   # errors near 3e-285: a product of two pmfs underflows
])
def test_binary_pair_at_large_u_matches_weight_blocks(q0, q1, u, digits):
    with mpmath.workdps(digits):
        pgm, helstrom = mp_pair_blocks(mpmath.mp, q0, q1, u)
    assert abs(qadc_block_pgm(q0, q1, u).value / float(pgm) - 1.0) < 1e-12
    assert abs(qadc_block_helstrom(q0, q1, u).value / float(helstrom) - 1.0) < 1e-12
