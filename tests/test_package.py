"""The package's public surface: lazily exported names resolve as before."""

import copy
import importlib
import pickle

import numpy as np
import pytest

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
    # the error classes defined in linalg are the ones their old modules raise
    assert chandisc.discrimination.DiscriminationError is chandisc.DiscriminationError
    assert chandisc.channels.ChannelError is chandisc.ChannelError


def test_star_import_binds_all():
    namespace = {}
    exec("from chandisc import *", namespace)
    assert set(chandisc.__all__) <= set(namespace)
    assert namespace["qadc_cpf_block_pgm"] is chandisc.qadc.qadc_cpf_block_pgm


def test_unknown_names_are_attribute_errors():
    assert getattr(chandisc, "no_such_name", None) is None
    assert not hasattr(chandisc, "active_backend")
    assert "h_mu_values" in dir(chandisc)


# One bad and one good construction per value type, with the error the bad one raises.
VALUE_TYPES = {
    "BoundReport": (lambda: chandisc.BoundReport(0.5, "sideways", "m"),
                    lambda: chandisc.BoundReport(0.5, "exact", "m"), chandisc.DiscriminationError),
    "KrausChannel": (lambda: chandisc.KrausChannel((2 * np.eye(2),)),
                     lambda: chandisc.make_qadc(0.3), chandisc.ChannelError),
    "XiTable": (lambda: chandisc.XiTable([1, 2], [1.0, np.nan]),
                lambda: chandisc.XiTable([1, 2], [1.0, 0.5]), chandisc.QadcError),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_validate_and_stay_immutable(name):
    bad, good, error = VALUE_TYPES[name]
    with pytest.raises(error):
        bad()
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
