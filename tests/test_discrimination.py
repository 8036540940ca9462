import numpy as np
import pytest

from chandisc.discrimination import (
    BoundReport,
    DensityMatrix,
    DiscriminationError,
    Povm,
    StateEnsemble,
    gus_unitary_helstrom,
    helstrom_binary,
    helstrom_iterative,
    pgm_error,
    pgm_povm,
)

from chandisc.linalg import ChandiscError, LinalgError, check_exact_prob

from _oracles import fidelity, fidelity_lower_bound, success_probability
from _util import gus_pure_states, random_density, random_unitary


def _pure(vec):
    vec = np.asarray(vec, dtype=np.complex128)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def test_bound_report_exact_range():
    with pytest.raises(DiscriminationError):
        BoundReport(1.5, "exact", "x")
    # tiny numerical overshoot snaps back into range
    assert BoundReport(1.0 + 1e-10, "exact", "x").value == 1.0


def test_exact_check_over_arrays():
    # one check for BoundReport and the array kernels' callers
    got = check_exact_prob(np.array([-1e-13, 0.25, 1.0 + 1e-10, -0.0]))
    assert got.tolist() == [0.0, 0.25, 1.0, 0.0]
    assert check_exact_prob(-1e-13) == 0.0 and isinstance(check_exact_prob(0.5), float)
    for bad in (-1e-8, 1.0 + 1e-8, np.nan, np.inf):
        with pytest.raises(DiscriminationError, match="beyond tolerance"):
            check_exact_prob(np.array([0.5, bad]))
        with pytest.raises(DiscriminationError, match="beyond tolerance"):
            BoundReport(bad, "exact", "x")


def test_bound_report_clamping():
    rep = BoundReport(-0.2, "lower", "x")
    assert rep.value == -0.2
    assert rep.clamped_value == 0.0
    assert rep.clamped
    assert not BoundReport(0.3, "upper", "x").clamped


def test_ensemble_validation():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(DiscriminationError):
        StateEnsemble([rho, rho], [0.6, 0.6])
    with pytest.raises(DiscriminationError):
        StateEnsemble([rho, rho], [1.2, -0.2])
    with pytest.raises(DiscriminationError):
        StateEnsemble([], [])


def test_povm_validation():
    eye = np.eye(2)
    Povm((0.5 * eye, 0.5 * eye))
    with pytest.raises(DiscriminationError):
        Povm((eye, eye))  # sums to 2I
    with pytest.raises(DiscriminationError):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))  # negative element
    # hermitize's error, a ChandiscError like every library error (the CLI exits 2)
    assert issubclass(LinalgError, ChandiscError)
    skew = np.array([[0.0, 0.5], [-0.5, 0.0]])
    with pytest.raises(LinalgError, match="not Hermitian"):
        Povm((0.5 * eye + skew, 0.5 * eye - skew))  # sums to I, but not Hermitian


def test_success_probability_orthogonal_states():
    ens = StateEnsemble.equiprobable([_pure([1, 0]), _pure([0, 1])])
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert abs(success_probability(ens, povm) - 1.0) < 1e-15


def test_helstrom_binary_trivial_cases():
    plus = _pure([1, 1])
    zero = _pure([1, 0])
    one = _pure([0, 1])
    assert helstrom_binary(zero, one).value < 1e-15
    # identical states: guessing the likelier prior is optimal
    assert abs(helstrom_binary(plus, plus, p0=0.3).value - 0.3) < 1e-15
    # equiprobable pure states with overlap c: (1 - sqrt(1 - c^2)) / 2
    c = abs(np.vdot([1, 0], np.array([1, 1]) / np.sqrt(2)))
    expect = (1.0 - np.sqrt(1.0 - c**2)) / 2.0
    assert abs(helstrom_binary(zero, plus).value - expect) < 1e-12


def test_pgm_matches_helstrom_for_equiprobable_pure_pair():
    rng = np.random.default_rng(20)
    for _ in range(5):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        ens = StateEnsemble.equiprobable([_pure(a), _pure(b)])
        exact = helstrom_binary(ens.states[0], ens.states[1]).value
        assert abs(pgm_error(ens).value - exact) < 1e-10


def test_pgm_within_factor_two_of_helstrom():
    rng = np.random.default_rng(21)
    for _ in range(10):
        states = [random_density(rng, 3) for _ in range(3)]
        ens = StateEnsemble.equiprobable(states)
        report, _, gap = helstrom_iterative(ens)
        ub = pgm_error(ens).value
        assert ub >= report.value - gap - 1e-9
        assert ub <= 2.0 * report.value + 1e-9


def test_pgm_povm_resolves_identity():
    rng = np.random.default_rng(22)
    ens = StateEnsemble([random_density(rng, 4, rank=2) for _ in range(3)],
                        [0.5, 0.3, 0.2])
    povm = pgm_povm(ens)  # constructor validates PSD and completeness
    assert len(povm) == 3 and povm.dim == 4


def test_fidelity_bounds_pairwise_formulas():
    # equiprobable pair: LB = p0 p1 F^2 = F^2/4
    a = _pure([1, 0, 0])
    b = _pure([1, 1, 0])
    f = fidelity(a, b)
    ens = StateEnsemble.equiprobable([a, b])
    assert abs(fidelity_lower_bound(ens) - f * f / 4) < 1e-12


def test_fidelity_bounds_bracket_exact_error():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ens = StateEnsemble.equiprobable([random_density(rng, 3) for _ in range(3)])
        exact, _, gap = helstrom_iterative(ens)
        assert fidelity_lower_bound(ens) <= exact.value + gap + 1e-9


def test_iterative_matches_binary_helstrom():
    rng = np.random.default_rng(24)
    for _ in range(8):
        rho0 = random_density(rng, 4)
        rho1 = random_density(rng, 4)
        p0 = rng.uniform(0.2, 0.8)
        exact = helstrom_binary(rho0, rho1, p0).value
        report, povm, gap = helstrom_iterative(StateEnsemble([rho0, rho1], [p0, 1 - p0]))
        assert abs(report.value - exact) <= gap + 1e-7
        # the returned measurement achieves the reported error
        ens = StateEnsemble([rho0, rho1], [p0, 1 - p0])
        achieved = 1.0 - success_probability(ens, povm)
        assert abs(achieved - report.value) < 1e-10


def test_iterative_orthogonal_and_identical_ensembles():
    basis = [_pure([1, 0, 0]), _pure([0, 1, 0]), _pure([0, 0, 1])]
    report, _, gap = helstrom_iterative(StateEnsemble.equiprobable(basis))
    assert report.value <= gap + 1e-9
    same = DensityMatrix(np.eye(3) / 3)
    report, _, gap = helstrom_iterative(StateEnsemble([same] * 3, [0.5, 0.25, 0.25]))
    # indistinguishable states: error is 1 - max prior
    assert abs(report.value - 0.5) <= gap + 1e-8


def test_iterative_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(25)
    states = [random_density(rng, 4) for _ in range(3)]
    un = random_unitary(rng, 4)
    rotated = [DensityMatrix(un @ s.mat @ un.conj().T) for s in states]
    a, _, gap_a = helstrom_iterative(StateEnsemble.equiprobable(states))
    b, _, gap_b = helstrom_iterative(StateEnsemble.equiprobable(rotated))
    assert abs(a.value - b.value) <= gap_a + gap_b + 1e-7


def test_iterative_dimension_guard():
    rho = DensityMatrix(np.eye(300) / 300)
    with pytest.raises(DiscriminationError):
        helstrom_iterative(StateEnsemble.equiprobable([rho, rho]))


def test_iterative_reports_certificate():
    rng = np.random.default_rng(26)
    ens = StateEnsemble.equiprobable([random_density(rng, 3) for _ in range(4)])
    report, _, gap = helstrom_iterative(ens)
    assert report.params["converged"]
    assert gap <= 3 * 1e-8 * 10  # dim * tol, generous
    assert report.params["iterations"] >= 1


def test_iterative_unconverged_result_is_an_upper_bound():
    # one iteration stops at the PGM, which is not optimal for these states
    rng = np.random.default_rng(27)
    ens = StateEnsemble.equiprobable([random_density(rng, 4) for _ in range(3)])
    short, povm, gap = helstrom_iterative(ens, max_iters=1)
    assert not short.params["converged"]
    assert short.kind == "upper" and gap > 0.0
    assert abs(short.value - (1.0 - success_probability(ens, povm))) < 1e-12
    assert abs(short.value - pgm_error(ens).value) < 1e-12
    full, _, full_gap = helstrom_iterative(ens)
    assert full.params["converged"] and full.kind == "exact"
    assert full.value < short.value - 1e-6
    assert short.value - gap <= full.value + full_gap + 1e-12


def test_gus_formula_endpoints():
    for m in (2, 3, 5):
        assert gus_unitary_helstrom(0.0, m).value < 1e-15
        assert abs(gus_unitary_helstrom(1.0, m).value - (m - 1) / m) < 1e-12
    # worked value: m=2, eta=0.6 gives (1/4)(sqrt(1.6)-sqrt(0.4))^2 = 0.1
    assert abs(gus_unitary_helstrom(0.6, 2).value - 0.1) < 1e-12


def test_gus_formula_matches_solver_on_cyclic_states():
    for m, eta in [(2, 0.3), (3, 0.6), (4, 0.85)]:
        vecs = gus_pure_states(eta, m)
        # construction sanity: every pairwise overlap equals eta
        for i in range(m):
            for j in range(i + 1, m):
                assert abs(np.vdot(vecs[i], vecs[j]) - eta) < 1e-12
        states = [_pure(v) for v in vecs]
        report, _, gap = helstrom_iterative(StateEnsemble.equiprobable(states))
        expect = gus_unitary_helstrom(eta, m).value
        assert abs(report.value - expect) <= gap + 1e-7
