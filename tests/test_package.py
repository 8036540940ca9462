"""The package's public surface: lazily exported names resolve as before."""

import copy
import doctest
import importlib
import pathlib
import pickle
import pkgutil
import re

import numpy as np
import pytest

import chandisc
from chandisc import cli
from chandisc.cpf import argmax_ports
from chandisc.crosscheck import h_m1_closed, nulling_unitary


def test_every_export_is_its_defining_object():
    submodules = {"channels", "cpf", "discrimination", "linalg", "orc", "qadc"}
    assert submodules <= set(chandisc.__all__)
    for name in chandisc.__all__:
        value = getattr(chandisc, name)
        if name in submodules:
            assert value is importlib.import_module(f"chandisc.{name}")
        else:
            assert vars(importlib.import_module(value.__module__))[name] is value, name


def test_star_import_binds_all():
    namespace = {}
    exec("from chandisc import *", namespace)
    assert set(chandisc.__all__) <= set(namespace)
    assert namespace["qadc_cpf_block_pgm"] is chandisc.qadc.qadc_cpf_block_pgm


def test_public_surface_is_pinned():
    # an export added or dropped shows up in this list
    assert chandisc.__all__ == [
        "BoundReport", "ChandiscError", "DensityMatrix", "KrausChannel", "Povm",
        "StateEnsemble", "XiTable", "channels", "check_exact_prob", "choi", "cpf",
        "cpf_nonadaptive_fidelity_lb", "default_xi", "discrimination", "f_u_values",
        "fvg_sandwich", "gus_unitary_helstrom", "h_mu_values", "heisenberg_weyl",
        "helstrom_binary", "helstrom_iterative", "hermitize", "linalg", "make_qadc", "make_qdc",
        "make_qec", "nulling_error", "nulling_outcome_dist", "orc", "pgm_error", "pgm_povm",
        "qadc", "qadc_adaptive_lb_opt", "qadc_adaptive_lb_values", "qadc_block_helstrom",
        "qadc_block_pgm", "qadc_choi_fidelity", "qadc_cpf_adaptive_lb_opt",
        "qadc_cpf_adaptive_lb_values", "qadc_cpf_block_pgm", "qdc_scales",
        "tele_covariance_check", "tensor_all", "trace_norm"]


def test_unknown_names_are_attribute_errors():
    assert getattr(chandisc, "no_such_name", None) is None
    assert not hasattr(chandisc, "active_backend")
    assert "h_mu_values" in dir(chandisc)


# Each former error class of the package, by the module that defined it,
# with one input it refused and the message: every refusal is a ChandiscError.
REFUSALS = {
    "linalg": (lambda: chandisc.hermitize(np.array([[0.0, 1.0], [0.0, 0.0]])),
               "matrix is not Hermitian: drift 5.000e-01 > 1.000e-08"),
    "discrimination": (lambda: chandisc.BoundReport(0.5, "sideways", "m"),
                       "unknown bound kind 'sideways'"),
    "channels": (lambda: chandisc.make_qadc(2.0), "q must lie in [0, 1], got 2.0"),
    "orc": (lambda: chandisc.qdc_scales(1), "need an integer d >= 2 and <= 2**53, got 1"),
    "cpf": (lambda: argmax_ports(None, (5, 2), None),
            "invalid port range (5, 2): need an integer end >= 5 and <= 2**53, got 2"),
    "qadc": (lambda: chandisc.XiTable([2, 1], [1.0, 1.0]),
             "xi table port counts must increase strictly"),
    "cli": (lambda: cli.make_config(cli.build_parser().parse_args(
        ["--command", "crosscheck", "--budget", "0"])), "--budget must be > 0, got 0.0"),
}


def test_one_refusal_class():
    modules = [importlib.import_module(f"chandisc.{info.name}")
               for info in pkgutil.iter_modules(chandisc.__path__)]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__.startswith("chandisc")}
    assert classes == {chandisc.ChandiscError, cli.InvariantViolation}
    for refuse, message in REFUSALS.values():
        with pytest.raises(chandisc.ChandiscError) as refused:
            refuse()
        assert type(refused.value) is chandisc.ChandiscError
        assert str(refused.value) == message


# One bad and one good construction per value type, with the message the bad one raises.
VALUE_TYPES = {
    "BoundReport": (lambda: chandisc.BoundReport(0.5, "sideways", "m"),
                    lambda: chandisc.BoundReport(0.5, "exact", "m"),
                    "unknown bound kind 'sideways'"),
    "KrausChannel": (lambda: chandisc.KrausChannel((2 * np.eye(2),)),
                     lambda: chandisc.make_qadc(0.3),
                     "channel is not trace preserving: drift 3.000e+00"),
    "XiTable": (lambda: chandisc.XiTable([1, 2], [1.0, np.nan]),
                lambda: chandisc.XiTable([1, 2], [1.0, 0.5]), "xi table has non-finite values"),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_validate_and_stay_immutable(name):
    bad, good, message = VALUE_TYPES[name]
    with pytest.raises(chandisc.ChandiscError) as refused:
        bad()
    assert str(refused.value) == message
    value = good()
    assert type(value).__name__ == name
    field = type(value).__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before
    assert repr(value).startswith(f"{name}(")
    # copies keep every field and stay immutable
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(twin, field, before)


# Every public entry that takes a size (m, u, d or a port-range end), called
# with that size as ``n``.
SIZED = {
    "h_mu_values:m": lambda n: chandisc.h_mu_values(0.3, 0.2, n, 2),
    "h_mu_values:u": lambda n: chandisc.h_mu_values(0.3, 0.2, 3, n),
    "f_u_values:u": lambda n: chandisc.f_u_values(0.3, 0.2, n),
    "qdc_scales:d": lambda n: chandisc.qdc_scales(n),
    "qadc_adaptive_lb_values:u": lambda n: chandisc.qadc_adaptive_lb_values(0.3, 0.2, n, [1, 9]),
    "qadc_cpf_adaptive_lb_values:m":
        lambda n: chandisc.qadc_cpf_adaptive_lb_values(0.3, 0.2, n, 2, [1, 9]),
    "qadc_cpf_adaptive_lb_values:u":
        lambda n: chandisc.qadc_cpf_adaptive_lb_values(0.3, 0.2, 2, n, [1, 9]),
    "qadc_adaptive_lb_opt:u": lambda n: chandisc.qadc_adaptive_lb_opt(0.3, 0.2, n),
    "qadc_adaptive_lb_opt:lo":
        lambda n: chandisc.qadc_adaptive_lb_opt(0.3, 0.2, 2, ports_range=(n, 10)),
    "qadc_adaptive_lb_opt:hi":
        lambda n: chandisc.qadc_adaptive_lb_opt(0.3, 0.2, 2, ports_range=(1, n)),
    "qadc_cpf_adaptive_lb_opt:m": lambda n: chandisc.qadc_cpf_adaptive_lb_opt(0.3, 0.2, n, 4),
    "qadc_cpf_adaptive_lb_opt:u": lambda n: chandisc.qadc_cpf_adaptive_lb_opt(0.3, 0.2, 2, n),
    "qadc_cpf_adaptive_lb_opt:lo":
        lambda n: chandisc.qadc_cpf_adaptive_lb_opt(0.3, 0.2, 2, 4, ports_range=(n, 10)),
    "qadc_cpf_adaptive_lb_opt:hi":
        lambda n: chandisc.qadc_cpf_adaptive_lb_opt(0.3, 0.2, 2, 4, ports_range=(1, n)),
    "qadc_block_helstrom:u": lambda n: chandisc.qadc_block_helstrom(0.1, 0.3, n),
    "qadc_block_pgm:u": lambda n: chandisc.qadc_block_pgm(0.1, 0.3, n),
    "qadc_cpf_block_pgm:m": lambda n: chandisc.qadc_cpf_block_pgm(0.3, 0.2, n, 2),
    "qadc_cpf_block_pgm:u": lambda n: chandisc.qadc_cpf_block_pgm(0.3, 0.2, 2, n),
    "fvg_sandwich:u": lambda n: chandisc.fvg_sandwich(0.9, n),
    "nulling_error:u": lambda n: chandisc.nulling_error(0.1, 0.3, n),
    "cpf_nonadaptive_fidelity_lb:m": lambda n: chandisc.cpf_nonadaptive_fidelity_lb(0.9, n, 2),
    "cpf_nonadaptive_fidelity_lb:u": lambda n: chandisc.cpf_nonadaptive_fidelity_lb(0.9, 2, n),
    "make_qec:d": lambda n: chandisc.make_qec(n, 0.3),
    "make_qdc:d": lambda n: chandisc.make_qdc(n, 0.3),
    "gus_unitary_helstrom:m": lambda n: chandisc.gus_unitary_helstrom(0.4, n),
    "h_m1_closed:m": lambda n: h_m1_closed(0.3, 0.2, n),
}


def _outcome(value):
    # a printable form of an entry's result, equal only for equal results
    if isinstance(value, chandisc.BoundReport):
        value = (value.value, value.kind, value.method, value.params)
    elif isinstance(value, chandisc.KrausChannel):
        value = [k.tolist() for k in value.kraus]
    else:
        value = np.asarray(value).tolist()
    return repr(value)


@pytest.mark.parametrize("entry", sorted(SIZED))
def test_sizes_are_refused_not_truncated(entry):
    # int(2.5) ran at 2 and int("2") parsed a string; no count exceeds 2**53
    # one count is never an array, list or tuple: none is read as its entry
    call = SIZED[entry]
    for bad in (2.5, "2", np.nan, np.inf, 2**53 + 1, [3], (3,), np.array([3])):
        with pytest.raises(chandisc.ChandiscError) as refused:
            call(bad)
        assert type(refused.value) is chandisc.ChandiscError
    assert len({_outcome(call(n)) for n in (3, np.int64(3), 3.0, np.array(3))}) == 1


# Every public entry that takes a single probability, called with it as ``q``.
ONE_PROBABILITY = {
    "make_qec:q": lambda q: chandisc.make_qec(2, q),
    "make_qdc:q": lambda q: chandisc.make_qdc(2, q),
    "make_qadc:q": lambda q: chandisc.make_qadc(q),
    "cpf_nonadaptive_fidelity_lb:choi_fidelity":
        lambda q: chandisc.cpf_nonadaptive_fidelity_lb(q, 2, 2),
    "helstrom_binary:p0": lambda q: chandisc.helstrom_binary(np.eye(2) / 2, np.eye(2) / 2, q),
    "gus_unitary_helstrom:eta": lambda q: chandisc.gus_unitary_helstrom(q, 3),
    "h_m1_closed:q_b": lambda q: h_m1_closed(q, 0.2, 3),
    "h_m1_closed:q_t": lambda q: h_m1_closed(0.3, q, 3),
    "nulling_unitary:q": lambda q: nulling_unitary(q),
    "qadc_choi_fidelity:q0": lambda q: chandisc.qadc_choi_fidelity(q, 0.2),
    "qadc_choi_fidelity:q1": lambda q: chandisc.qadc_choi_fidelity(0.3, q),
    "fvg_sandwich:choi_fidelity": lambda q: chandisc.fvg_sandwich(q, 2),
    "qadc_adaptive_lb_values:q0": lambda q: chandisc.qadc_adaptive_lb_values(q, 0.2, 2, [1, 9]),
    "qadc_adaptive_lb_values:q1": lambda q: chandisc.qadc_adaptive_lb_values(0.3, q, 2, [1, 9]),
    "qadc_adaptive_lb_opt:q0": lambda q: chandisc.qadc_adaptive_lb_opt(q, 0.2, 2),
    "qadc_adaptive_lb_opt:q1": lambda q: chandisc.qadc_adaptive_lb_opt(0.3, q, 2),
    "qadc_cpf_adaptive_lb_values:q_b":
        lambda q: chandisc.qadc_cpf_adaptive_lb_values(q, 0.2, 2, 2, [1, 9]),
    "qadc_cpf_adaptive_lb_values:q_t":
        lambda q: chandisc.qadc_cpf_adaptive_lb_values(0.3, q, 2, 2, [1, 9]),
    "qadc_cpf_adaptive_lb_opt:q_b": lambda q: chandisc.qadc_cpf_adaptive_lb_opt(q, 0.2, 2, 4),
    "qadc_cpf_adaptive_lb_opt:q_t": lambda q: chandisc.qadc_cpf_adaptive_lb_opt(0.3, q, 2, 4),
    "qadc_block_helstrom:q0": lambda q: chandisc.qadc_block_helstrom(q, 0.3, 3),
    "qadc_block_helstrom:q1": lambda q: chandisc.qadc_block_helstrom(0.1, q, 3),
    "qadc_block_pgm:q0": lambda q: chandisc.qadc_block_pgm(q, 0.3, 3),
    "qadc_block_pgm:q1": lambda q: chandisc.qadc_block_pgm(0.1, q, 3),
    "qadc_cpf_block_pgm:q_b": lambda q: chandisc.qadc_cpf_block_pgm(q, 0.2, 2, 2),
    "qadc_cpf_block_pgm:q_t": lambda q: chandisc.qadc_cpf_block_pgm(0.3, q, 2, 2),
    "nulling_outcome_dist:q_applied": lambda q: chandisc.nulling_outcome_dist(q, 0.2),
    "nulling_outcome_dist:q_actual": lambda q: chandisc.nulling_outcome_dist(0.3, q),
    "nulling_error:q0": lambda q: chandisc.nulling_error(q, 0.3, 2),
    "nulling_error:q1": lambda q: chandisc.nulling_error(0.1, q, 2),
}


# The entries above that are kernels over points: each takes an array of
# probabilities, one point per entry, where the others refuse it.
ELEMENTWISE = {
    "cpf_nonadaptive_fidelity_lb", "fvg_sandwich", "nulling_error", "nulling_outcome_dist",
    "qadc_adaptive_lb_opt", "qadc_adaptive_lb_values", "qadc_block_helstrom", "qadc_block_pgm",
    "qadc_choi_fidelity", "qadc_cpf_adaptive_lb_opt", "qadc_cpf_adaptive_lb_values",
    "qadc_cpf_block_pgm"}


@pytest.mark.parametrize("entry", sorted(ONE_PROBABILITY))
def test_single_probabilities_are_refused_unless_one_real_number(entry):
    # refused as a ChandiscError, not parsed as a number nor left to float() to raise
    call = ONE_PROBABILITY[entry]
    points, bad_values = np.array([0.3, 0.2]), ["0.3", None, 0.3 + 0j]
    if entry.split(":")[0] in ELEMENTWISE:
        call(points)
    else:
        bad_values.append(points)
    for bad in bad_values:
        with pytest.raises(chandisc.ChandiscError) as refused:
            call(bad)
        assert type(refused.value) is chandisc.ChandiscError
    assert len({_outcome(call(q)) for q in (0.25, np.float64(0.25), np.array(0.25))}) == 1


def test_readme_python_examples_run():
    # The >>> lines of the README's python fences, run as doctests; the
    # closing fence ends each example, so it is not read as expected output.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    fences = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert fences
    runner, report = doctest.DocTestRunner(), []
    for number, source in enumerate(fences):
        runner.run(doctest.DocTestParser().get_doctest(
            source, {}, f"README.md python fence {number}", "README.md", 0), out=report.append)
    assert runner.tries and not runner.failures, "".join(report)
