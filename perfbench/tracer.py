"""Per-layer tracer for the benchmark's traced run.

The layers are fasdnet's modules. The tracer wraps every public
function of each layer module and every public method (plus the
constructor) of each class defined there, and counts calls and self
time per name. Self time is a span's duration minus the time its traced
children took, so the self times of all names add up to the traced
wall time minus what ran outside any fasdnet call.

fasdnet modules bind each other's functions with `from .x import f`,
so wrapping only the defining module would miss most calls. install()
therefore rebinds every name in every loaded `fasdnet.*` namespace that
refers to a wrapped original, and then fails if any namespace or class
still holds one.

Counts are aggregated in memory rather than kept as one span per call:
the data-io workload alone makes about two million RNG calls.
Properties and private helpers are not wrapped; their time lands in
the self time of the public caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("matrix", "layers", "training", "rng", "data", "experiment", "cli")

# Extra work counters, computed from the call's arguments.
WORK = {
    # 2*m*k*n floating-point operations for an (m, k) @ (k, n) product
    "matrix.matmul": lambda a, b: 2 * a.shape[0] * a.shape[1] * b.shape[1],
}


class Tracer:
    """Calls, self time and work per wrapped name, timed on `clock`."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # name -> [calls, self seconds, work units]
        self.stats: dict[str, list] = {}
        self._stack = [0.0]
        self._originals: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = self._clock
        work = WORK.get(name)
        self._originals[id(fn)] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                stat[2] += work(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__qualname__}"
            if attr != "__init__":
                name += f".{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap(name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrap(name, value.__func__)))

    def install(self) -> None:
        """Wrap every layer's public functions and methods; rebind them
        in every loaded fasdnet module."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"fasdnet.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    replacements[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    self._wrap_class(layer, value)
        for module in _fasdnet_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        leftovers = self.unwrapped_bindings()
        if leftovers:
            raise RuntimeError(
                f"tracer left unwrapped originals bound at: {', '.join(leftovers)}"
            )

    def unwrapped_bindings(self) -> list[str]:
        """Names in fasdnet namespaces and classes that still refer to
        an original rather than its traced wrapper."""
        found = []
        for module in _fasdnet_modules():
            for attr, value in vars(module).items():
                if id(value) in self._originals:
                    found.append(f"{module.__name__}.{attr}")
                elif inspect.isclass(value):
                    for cattr, cvalue in vars(value).items():
                        inner = getattr(cvalue, "__func__", cvalue)
                        if id(inner) in self._originals:
                            found.append(f"{module.__name__}.{attr}.{cattr}")
        return found

    def metrics(self, traced_wall_s: float, overhead_s: float) -> dict[str, float]:
        """Flat name -> value map: per name calls/self_s, per layer
        self_s, matmul GFLOP/s over its self time, the tracer's overhead
        and the traced time spent outside any traced call."""
        out: dict[str, float] = {}
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, self_s, work) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            per_layer[name.split(".", 1)[0]] += self_s
        for layer, self_s in per_layer.items():
            out[f"{layer}.self_s"] = self_s
        calls, self_s, flops = self.stats["matrix.matmul"]
        out["matrix.matmul.gflops_computed"] = flops / self_s / 1e9 if self_s > 0 else 0.0
        out["trace.overhead_s"] = overhead_s
        out["trace.unattributed_s"] = traced_wall_s - sum(per_layer.values())
        return out


def _fasdnet_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fasdnet" or name.startswith("fasdnet."))
    ]
