"""The package's public surface: lazily exported names resolve as before."""

import importlib

import chandisc


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


def test_unknown_names_are_attribute_errors():
    assert getattr(chandisc, "no_such_name", None) is None
    assert not hasattr(chandisc, "active_backend")
    assert "h_mu_values" in dir(chandisc)
