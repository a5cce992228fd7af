"""Per-layer timing for the traced run: nested spans around qmarginal names.

The traced run replaces each public function listed in ``LAYERS`` with a
timing wrapper in every ``qmarginal`` module that holds a reference to it
(``from .linalg import hermitian_eig`` makes ``constructors.hermitian_eig``
a second reference, and both must be wrapped). The untraced run never
imports this module's ``install``, so it wraps nothing.

Self time of a span is its duration minus the time covered by its child
spans. A call made from inside a span of the same layer adds self time but
no call, so ``calls`` counts entries into a layer from outside it.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> functions, as (module, attribute) pairs
LAYERS = {
    "constructors.rank_k": [("qmarginal.constructors", "construct_rank_k")],
    "constructors.nonextreme": [("qmarginal.constructors", "nonextreme_of_rank_k")],
    "constructors.spectra": [("qmarginal.constructors", "construct_with_spectra")],
    "constructors.optimal_low_rank": [("qmarginal.constructors", "optimal_low_rank")],
    "constructors.horn_unitary": [("qmarginal.constructors", "horn_unitary")],
    "constructors.construct_23": [("qmarginal.constructors", "construct_23")],
    "linalg.eig": [("qmarginal.linalg", "hermitian_eig")],
    "linalg.validate": [
        ("qmarginal.linalg", "validate_density"),
        ("qmarginal.linalg", "bipartite"),
    ],
    "extremality.is_extreme": [("qmarginal.extremality", "is_extreme")],
    "extremality.split": [("qmarginal.extremality", "split_nonextreme")],
    "kernels.residual_spectra": [("qmarginal.kernels", "residual_spectra")],
    "kernels.census_spectra": [("qmarginal.kernels", "census_spectra")],
    # the numpy implementations are wrapped too: the trial kernels call them
    # directly, not through the public dispatchers
    "kernels.stream": [
        ("qmarginal.kernels", "raw_block"),
        ("qmarginal.kernels", "normal_block"),
        ("qmarginal.kernels", "np_raw_block"),
        ("qmarginal.kernels", "np_normal_block"),
    ],
    "kernels.prefix_sums": [("qmarginal.kernels", "prefix_sums")],
    "majorization.majorizes": [("qmarginal.majorization", "majorizes")],
    "feasibility.compat": [
        ("qmarginal.feasibility", "compat_2x2"),
        ("qmarginal.feasibility", "compat_2x3"),
        ("qmarginal.feasibility", "necessary_spectra_compat"),
    ],
    "fileio.load": [
        ("qmarginal.fileio", "load_doc"),
        ("qmarginal.fileio", "doc_to_matrix"),
        ("qmarginal.fileio", "doc_to_spectrum"),
    ],
    "fileio.dump": [
        ("qmarginal.fileio", "dumps"),
        ("qmarginal.fileio", "matrix_to_doc"),
        ("qmarginal.fileio", "spectrum_to_doc"),
    ],
    "cli.handler": [("qmarginal.cli", "main")],
    # measured by the cli workload itself: a fresh interpreter importing the CLI
    "cli.startup": [],
}

# Recursive functions: the wrapper puts the original back for the duration of
# the call, so the recursion inside runs unwrapped and costs no span per level.
FLAT = {("qmarginal.fileio", "dumps")}


class Tracer:
    """Self time and call count per layer, accumulated over a whole run."""

    def __init__(self):
        self.self_ns = {name: 0 for name in LAYERS}
        self.calls = {name: 0 for name in LAYERS}
        # one [layer, children_ns] frame per open span
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, layer: str, duration_ns: int) -> None:
        """Record a span measured outside the wrappers (no children)."""
        self.self_ns[layer] += duration_ns
        self.calls[layer] += 1

    def _wrap(self, layer, func, holders):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if holders:
                for mod, attr in holders:
                    setattr(mod, attr, func)
            outer = stack[-1][0] if stack else None
            frame = [layer, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                self.self_ns[layer] += dt - frame[1]
                if outer != layer:
                    self.calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
                if holders:
                    for mod, attr in holders:
                        setattr(mod, attr, wrapper)

        return wrapper

    def install(self) -> None:
        """Wrap every reference to every listed function in loaded qmarginal modules."""
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "qmarginal" or name.startswith("qmarginal."))
        ]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                func = getattr(sys.modules[mod_name], attr)
                holders = [
                    (mod, name)
                    for mod in modules
                    for name, value in list(vars(mod).items())
                    if value is func
                ]
                flat = (mod_name, attr) in FLAT
                wrapper = self._wrap(layer, func, holders if flat else [])
                for mod, name in holders:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, func))

    def uninstall(self) -> None:
        for mod, name, func in reversed(self._restore):
            setattr(mod, name, func)
        self._restore.clear()

    def per_round(self, rounds: int) -> dict[str, dict]:
        """``<layer>.ms`` (self time) and ``<layer>.calls`` per round."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.ms"] = {"value": self.self_ns[layer] / 1e6 / rounds, "unit": "ms"}
            out[f"{layer}.calls"] = {"value": self.calls[layer] / rounds, "unit": "count"}
        return out
