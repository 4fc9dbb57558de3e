"""Outside-in tracing of the library's layers.

The tracer rebinds each traced function, under every name a ``twoqubit``
module holds it by, to a timing wrapper, and puts the originals back on
``restore``. No source file changes: a layer's calls are seen exactly as
its callers look them up. Spans live on one in-memory stack (the
benchmark is single-threaded), which gives each call's self time, the span
minus its traced children, and tells whether an exception left the module.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

LAYERS = ("linalg", "bloch", "spectrum", "separability", "entanglement", "chain", "sampling", "cli")
# Private functions traced beside the public ones.
EXTRA = {"entanglement": ("_flip_product_eigs",)}


class FuncStats:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns: list[int] = []


class Tracer:
    """Timing wrappers over the traced functions of a loaded package."""

    def __init__(self, package, wanted=()):
        """``package`` is the imported ``twoqubit``; ``wanted`` lists extra
        ``module.function`` names to trace, which are reported as absent when
        the package no longer has them."""
        self.package = package
        self.funcs: dict[str, FuncStats] = {}
        self.module_self_ns = {m: 0 for m in LAYERS}
        self.module_raised = {m: 0 for m in LAYERS}
        self.branches: dict[str, int] = {}
        self.sampled: list[np.ndarray] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._targets = self._find_targets(wanted)

    def _find_targets(self, wanted):
        targets = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer, None)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    targets[f"{layer}.{name}"] = (layer, obj)
        extra = [f"{layer}.{n}" for layer, names in EXTRA.items() for n in names]
        for key in list(wanted) + extra:
            layer, _, name = key.partition(".")
            mod = getattr(self.package, layer, None)
            obj = getattr(mod, name, None) if mod is not None else None
            if inspect.isfunction(obj):
                targets[key] = (layer, obj)
            elif key not in self.absent:
                self.absent.append(key)
        return targets

    def _wrap(self, key: str, layer: str, fn):
        stats = self.funcs.setdefault(key, FuncStats())
        stack = self._stack
        clock = time.perf_counter_ns
        module_self = self.module_self_ns
        module_raised = self.module_raised
        on_result = None
        if key == "spectrum.quartic_eigs":
            on_result = self._count_branch
        elif layer == "sampling":
            on_result = self._keep_sample

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                span = clock() - start
                stack.pop()
                own = span - frame[1]
                stats.calls += 1
                stats.self_ns.append(own)
                module_self[layer] += own
                if stack:
                    stack[-1][1] += span
                if not returned and (not stack or stack[-1][0] != layer):
                    module_raised[layer] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_branch(self, spectrum):
        name = spectrum.branch.value
        self.branches[name] = self.branches.get(name, 0) + 1

    def _keep_sample(self, value):
        # Only states handed out to callers outside the sampling layer.
        if (not self._stack or self._stack[-1][0] != "sampling") and getattr(value, "shape", None) == (4, 4):
            self.sampled.append(value)

    def install(self):
        """Rebind every traced function wherever a package module holds it."""
        modules = [self.package] + [getattr(self.package, m) for m in LAYERS if hasattr(self.package, m)]
        for key, (layer, fn) in self._targets.items():
            wrapper = self._wrap(key, layer, fn)
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def restore(self):
        """Put every original attribute back."""
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def counts(self) -> dict:
        """Snapshot of every count that must repeat exactly between passes."""
        out = {f"{k}.calls": s.calls for k, s in self.funcs.items()}
        out.update({f"{m}.raised": n for m, n in self.module_raised.items()})
        out.update({f"branch.{b}": n for b, n in self.branches.items()})
        return out
