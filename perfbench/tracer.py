"""Traced run of one CLI invocation, with every listed function wrapped.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS.json INVOCATION_ID -- <chandisc argv>

The tracer imports ``chandisc``, replaces each function named in
``WRAPPED`` by a recording wrapper in every ``chandisc.*`` module that
binds it (so ``from .linalg import f`` copies are traced too), then calls
``chandisc.cli.main(argv)``.  Spans and counts stay in memory and are
written to ``SPANS.json`` when the invocation ends, also when it raises.
The exit code and any traceback are those of the untraced CLI.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = ("cli", "orc", "_kernels", "linalg", "discrimination", "cpf", "qadc", "channels")

# Every function the traced run wraps, keyed by ``module.function``.
# "span" records a span per call; "count" only counts calls.  Counted
# functions are the tiny ones the port-count optimizer calls thousands of
# times per sweep point: a span there would cost more than the call.
# A name missing at the commit under test is reported as absent.
WRAPPED = {
    **{f"cli.{name}": "span" for name in (
        "build_parser", "make_config", "load_xi", "run_fig2", "run_fig3",
        "run_binary_qec", "run_binary_qdc", "run_binary_qadc", "run_binary",
        "run_crosscheck", "render", "write_output")},
    **{f"orc.{name}": "span" for name in (
        "f_u", "qec_binary", "qdc_binary", "weight_profiles", "h_mu_enumerate",
        "h_mu_weights", "h_m1_closed", "h_mu", "qec_cpf", "qdc_cpf")},
    "orc._profile_counts": "count",
    **{f"_kernels.{name}": "span" for name in (
        "histogram_numpy", "weights_sum_numpy", "weights_sum_log_numpy",
        "block_weight_histogram", "weights_sum", "weights_sum_log")},
    **{f"linalg.{name}": "span" for name in (
        "as_complex_matrix", "hermitize", "tensor", "tensor_all", "partial_trace",
        "trace_norm", "fidelity", "joint_support_compress", "compressed_tensor_power")},
    **{f"discrimination.{name}": "span" for name in (
        "success_probability", "helstrom_binary", "pgm_povm", "pgm_error",
        "fidelity_upper_bound", "fidelity_lower_bound", "helstrom_iterative",
        "continuity_lower_bound", "gus_unitary_helstrom")},
    **{f"cpf.{name}": "span" for name in (
        "build_cpf_choi_ensemble", "cyclic_shift", "theorem1_lower_bound",
        "general_fidelity_lb", "cpf_nonadaptive_fidelity_lb", "optimize_over_M",
        "compressed_cpf_ensemble", "cpf_pgm_upper", "cpf_helstrom_iterative",
        "cpf_block_fidelity_lb")},
    "cpf.cpf_sim_error": "count",
    "cpf.cpf_fidelity_lb": "count",
    **{f"qadc.{name}": "span" for name in (
        "fvg_sandwich", "qadc_adaptive_lb_opt", "qadc_cpf_adaptive_lb_opt",
        "qadc_block_helstrom", "qadc_block_pgm", "nulling_unitary",
        "nulling_outcome_dist", "nulling_error")},
    "qadc.qadc_choi_fidelity": "count",
    "qadc.qadc_adaptive_lb": "count",
    "qadc.qadc_cpf_adaptive_lb": "count",
    **{f"channels.{name}": "span" for name in (
        "make_qec", "heisenberg_weyl", "make_qdc", "make_qadc", "apply",
        "maximally_entangled", "choi", "pbt_error_bound", "zero_sim_error",
        "tele_covariance_check")},
    "channels.default_xi": "count",
    "channels.qadc_pbt_error": "count",
}


def _add(attrs, name, value):
    attrs[name] = attrs.get(name, 0) + value


def _raise_max(attrs, name, value):
    attrs[name] = max(attrs.get(name, 0), value)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_histogram(args, kwargs, result, attrs):
    m, u = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "u")
    _add(attrs, "orc.strings_enumerated", 2 ** (int(u) * int(m)))


def _hook_weights(args, kwargs, result, attrs):
    params = _arg(args, kwargs, 0, "params")
    _add(attrs, "orc.weight_vectors", (params.u + 1) ** params.m)


def _hook_compressed_power(args, kwargs, result, attrs):
    rank = result[0].shape[0]
    _raise_max(attrs, "linalg.compressed_rank_max", rank)
    # Computed, not measured: complex128 states of side ``rank``.
    _add(attrs, "linalg.compressed_bytes", len(result) * rank * rank * 16)


def _hook_pgm(args, kwargs, result, attrs):
    _raise_max(attrs, "discrimination.pgm_error.dim_max",
               _arg(args, kwargs, 0, "ensemble").dim)


def _hook_solver(args, kwargs, result, attrs):
    params = result[0].params
    _add(attrs, "discrimination.helstrom_iterative.iterations", int(params["iterations"]))
    _add(attrs, "discrimination.helstrom_iterative.unconverged",
         int(not params["converged"]))


def _hook_optimizer(args, kwargs, result, attrs):
    _add(attrs, "cpf.optimize_over_M.evaluations", len(result.evaluations))


def _hook_render(args, kwargs, result, attrs):
    _add(attrs, "cli.rows", len(_arg(args, kwargs, 1, "rows")))


# Attributes read from the arguments or results of a wrapped call.
HOOKS = {
    "_kernels.block_weight_histogram": _hook_histogram,
    "orc.h_mu_weights": _hook_weights,
    "linalg.compressed_tensor_power": _hook_compressed_power,
    "discrimination.pgm_error": _hook_pgm,
    "discrimination.helstrom_iterative": _hook_solver,
    "cpf.optimize_over_M": _hook_optimizer,
    "cli.render": _hook_render,
}


class Tracer:
    """In-memory span and count store for one invocation."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans = []   # [name, start, end, parent index or -1, invocation, raised]
        self.counts = {}
        self.attrs = {}
        self._stack = []

    def span_wrapper(self, key, fn, hook):
        spans, stack, attrs, invocation = self.spans, self._stack, self.attrs, self.invocation

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [key, start, end, parent, invocation, raised]
            if hook is not None:
                hook(args, kwargs, result, attrs)
            return result

        return wrapper

    def count_wrapper(self, key, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function in every module binding it; return absent names."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"chandisc.{layer}")
            except ImportError:
                pass
        binders = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "chandisc" or name.startswith("chandisc."))]
        absent = []
        for key, mode in WRAPPED.items():
            layer, name = key.split(".", 1)
            original = getattr(modules.get(layer), name, None)
            if not callable(original) or isinstance(original, type):
                absent.append(key)
                continue
            if mode == "count":
                wrapper = self.count_wrapper(key, original)
            else:
                wrapper = self.span_wrapper(key, original, HOOKS.get(key))
            for mod in binders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return absent

    def dump(self, path, argv, exit_code, main_s, absent):
        record = {"invocation": self.invocation, "argv": argv, "exit_code": exit_code,
                  "main_s": main_s, "absent": absent, "counts": self.counts,
                  "attrs": self.attrs, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json INVOCATION_ID -- <chandisc argv>", file=sys.stderr)
        return 2
    path, invocation, cli_argv = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(invocation)
    from chandisc import cli
    absent = tracer.install()
    exit_code = None
    start = perf_counter()
    try:
        exit_code = cli.main(cli_argv)
    finally:
        tracer.dump(path, cli_argv, exit_code, perf_counter() - start, absent)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
