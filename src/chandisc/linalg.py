"""Errors, probability checks and the bound record that every route shares.

This is the one module every command loads, so it holds only what the
closed forms, the binomial sums and the port-count optimizer need: the
package's error class, the range checks on probabilities and sizes, the
:class:`BoundReport` that states what each number is, and :class:`Frozen`,
the base of the package's immutable value types.  Dense matrices, states,
ensembles and their solvers live in :mod:`chandisc.discrimination`.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np


class ChandiscError(ValueError):
    """The one error the package raises for an input it refuses."""


class Frozen:
    """Base of the package's value types.

    A subclass lists its fields in ``__slots__`` and sets each one once, in
    ``__init__``, through ``object.__setattr__``; assigning or deleting a
    field afterwards raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle restore the fields here, as ``(None, {field: value})``
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def first_outside(values: np.ndarray, lo: float, hi: float):
    """The first entry of ``values`` outside ``[lo, hi]`` as a float, or None.

    NaN fails both comparisons with the bounds, so it counts as outside.
    Arrays are tested through their minimum and maximum, which NaN turns
    into NaN; the elementwise comparisons run only to name a failing entry.
    """
    if not values.size or lo <= values.min() and values.max() <= hi:
        return None
    return float(values[~((values >= lo) & (values <= hi))][0])


def as_item(values):
    """``values`` as an array, or as a Python number where it holds one number."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def check_prob(q, name: str = "q"):
    """``q`` as a float, or a float64 array, refused unless every entry lies in [0, 1].

    NaN is refused with the rest, and so is anything that is not a real
    number or an array of them: a string, None, a complex number or a
    ragged list.
    """
    try:
        values = np.asarray(q)
        real = values.dtype.kind in "biuf" or all(isinstance(v, numbers.Real) for v in values.flat)
    except ValueError:  # a ragged nesting of lists
        real = False
    if not real:
        raise ChandiscError(f"need a real {name} in [0, 1], got {q!r}")
    values = values.astype(np.float64, copy=False)
    bad = first_outside(values, 0.0, 1.0)
    if bad is not None:
        raise ChandiscError(f"{name} must lie in [0, 1], got {bad}")
    return as_item(values)


def check_one_prob(q, name: str = "q") -> float:
    """``q`` as a float, refused unless it is one real number in [0, 1]."""
    value = check_prob(q, name)
    if isinstance(value, float):
        return value
    raise ChandiscError(f"need one {name} in [0, 1], got {q!r}")


# Largest count any size check accepts.  Beyond 2**53 an integer has no
# exact float, so neighbouring port counts would share one bound (the
# kernels take ``4 u ports`` and ``4 / ports`` in floats), and no array of
# that many entries fits in memory.
MAX_COUNT = 2**53


def check_count(value, name: str, low: int) -> int:
    """``value`` as an int, refused unless it is one integer in ``[low, 2**53]``.

    Ints, numpy integers, 0-d integer arrays and integral floats pass; a
    fractional or non-finite float, a string, an array, a list, a tuple or
    any other type is refused, not truncated.  The upper bound is
    :data:`MAX_COUNT`.
    """
    try:
        count = operator.index(value)
    except TypeError:
        integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
        count = int(value) if integral else None
    if count is not None and low <= count <= MAX_COUNT:
        return count
    raise ChandiscError(f"need an integer {name} >= {low} and <= 2**53, got {value!r}")


def check_counts(values, name: str, low: int) -> np.ndarray:
    """``values`` as an int64 array, refused unless every entry passes :func:`check_count`."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf" and (
            not values.size or low <= values.min() and values.max() <= MAX_COUNT  # NaN fails
            and (values.dtype.kind != "f" or (np.trunc(values) == values).all())):
        return values.astype(np.int64, copy=False)
    entries = np.asarray(values, dtype=object)  # one by one, to name the entry refused
    return np.array([check_count(entry, name, low) for entry in entries.flat],
                    dtype=np.int64).reshape(entries.shape)


_EXACT_SLACK = 1e-9


def check_exact_prob(values):
    """Exact probabilities clamped into [0, 1]: a float, or a float64 array.

    Rounding may carry an exact value up to ``_EXACT_SLACK`` outside the
    interval; anything further out, or NaN, raises
    :class:`ChandiscError`.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = first_outside(values, -_EXACT_SLACK, 1.0 + _EXACT_SLACK)
    if bad is not None:
        raise ChandiscError(f"exact probability {bad} falls outside [0, 1] beyond tolerance")
    return as_item(np.clip(values, 0.0, 1.0))


KIND_EXACT = "exact"
KIND_LOWER = "lower"
KIND_UPPER = "upper"
_KINDS = (KIND_EXACT, KIND_LOWER, KIND_UPPER)


class BoundReport(Frozen):
    """An error-probability statement, at one point or at each of an array of points.

    ``value`` is unclamped; it and the per-point parameters are numbers at one
    point, arrays over an array of points.  ``kind`` states the direction:
    ``exact`` values are the quantity itself (and must lie in [0, 1]),
    ``lower``/``upper`` values bound it from the stated side and may fall
    outside [0, 1] when vacuous.  Use :attr:`clamped_value` for plotting.
    """

    __slots__ = ("value", "kind", "method", "params")

    def __init__(self, value, kind: str, method: str, params: dict | None = None):
        if kind not in _KINDS:
            raise ChandiscError(f"unknown bound kind {kind!r}")
        value = np.asarray(value, dtype=np.float64)
        if kind == KIND_EXACT:
            value = check_exact_prob(value)
        object.__setattr__(self, "value", as_item(value))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "params", {name: as_item(param)
                                            for name, param in (params or {}).items()})

    @property
    def clamped_value(self):
        return as_item(np.clip(self.value, 0.0, 1.0))

    @property
    def clamped(self):
        return self.value != self.clamped_value

    def columns(self, name: str) -> dict:
        """Table columns ``name[kind]`` (clamped), ``name[raw]`` and ``name[clamped_flag]``."""
        return {f"{name}[{self.kind}]": self.clamped_value, f"{name}[raw]": self.value,
                f"{name}[clamped_flag]": as_item(np.asarray(self.clamped, dtype=np.int64))}
