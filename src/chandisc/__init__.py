"""Error-probability bounds for discriminating noisy quantum channels.

The package covers three channel families (erasure, depolarizing, amplitude
damping) in two tasks: telling two channels apart, and finding the position
of one anomalous channel among ``m`` identical cells.  For the first two
families the ultimate adaptive error is available in closed form through
outcome counting; for amplitude damping the package brackets the error
between simulation-based adaptive lower bounds, fidelity sandwiches, block
values computed from Gram matrices of Kraus vectors (direct sums of small
blocks fixed by the Kraus weights), and an explicit nulling receiver.

Every error raised for a refused input is a :class:`ChandiscError`.

The public names are exported lazily (PEP 562): ``import chandisc`` loads no
submodule, and the first use of a name imports the one that defines it, so a
command that needs only ``orc`` never loads the damping code.
"""

import importlib

# Exported names by the submodule that defines them.
_EXPORTS = {
    "channels": (
        "KrausChannel", "choi", "heisenberg_weyl", "make_qadc", "make_qdc", "make_qec",
        "tele_covariance_check"),
    "cpf": ("cpf_nonadaptive_fidelity_lb",),
    "discrimination": (
        "DensityMatrix", "Povm", "StateEnsemble", "gus_unitary_helstrom", "helstrom_binary",
        "helstrom_iterative", "hermitize", "pgm_error", "pgm_povm", "tensor_all", "trace_norm"),
    "linalg": ("BoundReport", "ChandiscError", "check_exact_prob"),
    "orc": ("f_u_values", "h_mu_values", "qdc_scales"),
    "qadc": (
        "XiTable", "default_xi", "fvg_sandwich", "nulling_error", "nulling_outcome_dist",
        "qadc_adaptive_lb_opt", "qadc_adaptive_lb_values", "qadc_block_helstrom",
        "qadc_block_pgm", "qadc_choi_fidelity", "qadc_cpf_adaptive_lb_opt",
        "qadc_cpf_adaptive_lb_values", "qadc_cpf_block_pgm"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
