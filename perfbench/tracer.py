"""Per-layer spans around the public functions of qgansim, installed from outside.

A `Tracer` replaces each traced function or method by a wrapper that times
the call, then puts every original back on exit. Nothing under `src/` is
edited: module-level functions are re-bound in every `qgansim.*` module that
imported them by name (`from .generator import generate_state` binds a second
reference in `adversarial` and `cli`), and methods are re-bound on their
class.

Spans nest: a span's self time is its duration minus the time covered by
the traced spans it called. Per span name the tracer keeps call count, total
and self time; it aggregates as it goes instead of keeping every span, so a
traced 200-epoch run holds a few dozen numbers, not 10^5 records.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (span name, module, attribute path). A dotted path is a method or a
# callback reached through a module-level object.
SPANS = (
    ("kernels.apply_dense", "qgansim._kernels", "apply_dense"),
    ("kernels.apply_diag", "qgansim._kernels", "apply_diag"),
    ("statevec.UnitaryGate", "qgansim.statevec", "UnitaryGate.__post_init__"),
    ("statevec.StateVector", "qgansim.statevec", "StateVector.__init__"),
    ("statevec.run_circuit", "qgansim.statevec", "run_circuit"),
    ("generator.build_parametric_circuit", "qgansim.generator", "build_parametric_circuit"),
    ("generator.generate_state", "qgansim.generator", "generate_state"),
    ("discriminator.FastDiscriminator.p_real", "qgansim.discriminator", "FastDiscriminator.p_real"),
    ("discriminator.FastDiscriminator.init", "qgansim.discriminator", "FastDiscriminator.__init__"),
    ("adversarial.train", "qgansim.adversarial", "train"),
    ("metrics.fidelity", "qgansim.metrics", "fidelity"),
    ("metrics.kl_divergence", "qgansim.metrics", "kl_divergence"),
    ("metrics.trace_distance_pure", "qgansim.metrics", "trace_distance_pure"),
    ("svi.discretize", "qgansim.svi", "discretize"),
    ("fourier.qft_circuit", "qgansim.fourier", "qft_circuit"),
    ("cli.train", "qgansim.cli", "train_cmd.callback"),
)

# Spans whose first entry (and, for the second set, last exit) snapshots
# every span's call count, so that counts can be split at those boundaries:
# initial draws versus epochs inside `train`.
_SNAP_FIRST_ENTER = ("adversarial.train", "discriminator.FastDiscriminator.p_real")
_SNAP_LAST_EXIT = ("adversarial.train",)


def _kernel_bytes(amps, _gate, _tshifts, _offsets, cmask):
    # Every amplitude whose control bits are all one is read and written once.
    touched = amps.size >> bin(int(cmask)).count("1")
    return 2 * touched * amps.itemsize


_BYTES = {"kernels.apply_dense": _kernel_bytes, "kernels.apply_diag": _kernel_bytes}


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager that times calls into qgansim's layers while active."""

    def __init__(self):
        self.calls = {name: 0 for name, _, _ in SPANS}
        self.total = {name: 0.0 for name, _, _ in SPANS}
        self.self_time = {name: 0.0 for name, _, _ in SPANS}
        self.nbytes = {name: 0 for name in _BYTES}
        self.first_enter = {}
        self.last_exit = {}
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        size_of = _BYTES.get(name)
        snap_enter = name in _SNAP_FIRST_ENTER
        snap_exit = name in _SNAP_LAST_EXIT

        def wrapper(*args, **kwargs):
            if snap_enter and name not in self.first_enter:
                self.first_enter[name] = dict(calls)
            if size_of is not None:
                self.nbytes[name] += size_of(*args)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                covered = stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
                if snap_exit:
                    self.last_exit[name] = dict(calls)

        return wrapper

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("qgansim.")]
        for name, module_name, path in SPANS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            owners = [owner]
            if "." not in path:
                owners = [m for m in modules if getattr(m, attr, None) is original]
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)
        return False

    def calls_between(self, span, counted):
        """Calls of `counted` made between the first entry and last exit of `span`."""
        if span not in self.first_enter:
            return 0
        return self.last_exit[span][counted] - self.first_enter[span][counted]
