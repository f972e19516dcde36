"""Per-layer tracing for the benchmark, from outside the library.

The tracer replaces every public function of the layer modules with a timing
wrapper, in every ``gaussdp`` module namespace that binds the function's
name (``erfc`` is bound in ``gaussdp.specfun`` and ``gaussdp.calib``,
``calibrate`` in ``gaussdp.calib``, ``gaussdp.mech``, ``gaussdp.cli`` and
the package itself), so that calls between modules are seen too.  Spans are
aggregated in memory per function: call count, total and self time (self
time excludes the time of wrapped calls made inside), per-call durations
and, where the function reports them, solver iterations.
"""

from __future__ import annotations

import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("specfun", "calib", "compose", "relations", "rng", "mech", "cli")

# Functions called so often that keeping every duration would cost memory;
# their totals suffice.
_NO_DURATIONS = {"specfun"}


def _size_standard_normal(args, kwargs):
    return int(args[0] if args else kwargs["n"])


def _size_histogram_counts(args, kwargs):
    return len(args[0] if args else kwargs["rows"])


# Work units for the per-value / per-row timings.
_SIZE_OF = {
    "rng.standard_normal": _size_standard_normal,
    "mech.histogram_counts": _size_histogram_counts,
}


@dataclass
class FunctionStats:
    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failures: int = 0
    size: int = 0
    nested_in_frontier: int = 0
    durations: list | None = field(default_factory=list)
    iterations: list = field(default_factory=list)


class Tracer:
    """Installs and removes the wrappers and owns the collected statistics.

    ``stats`` maps ``"<layer>.<function>"`` to FunctionStats; calls to
    ``cli.main`` are keyed ``"cli.main.<command>"`` by their first argument.
    """

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[float] = []  # child time of each open span
        self._frontier_depth = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _stat(self, key: str, layer: str) -> FunctionStats:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = FunctionStats(layer)
            if layer in _NO_DURATIONS:
                stat.durations = None
        return stat

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stat = self._stat(key, layer)
        size_of = _SIZE_OF.get(key)
        is_main = key == "cli.main"
        is_frontier = key == "calib.failure_threshold"
        is_inner_solve = key == "calib.solve_dp_opt"
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            st = stat
            if is_main:
                argv = args[0] if args else kwargs.get("argv")
                st = tracer._stat(f"cli.main.{argv[0] if argv else 'none'}", layer)
            if is_inner_solve and tracer._frontier_depth:
                st.nested_in_frontier += 1
            if is_frontier:
                tracer._frontier_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.failures += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if is_frontier:
                    tracer._frontier_depth -= 1
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - child
                if st.durations is not None:
                    st.durations.append(elapsed)
                if size_of is not None:
                    st.size += size_of(args, kwargs)
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                st.iterations.append(iterations)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules everywhere it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gaussdp.{layer}"]
            for name, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gaussdp" and not mod_name.startswith("gaussdp."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def get(self, key: str) -> FunctionStats | None:
        stat = self.stats.get(key)
        return stat if stat is not None and stat.calls else None

    def self_seconds(self, layer: str, names: tuple[str, ...] | None = None) -> float:
        """Self time of a layer, or of the named functions in it."""
        return sum(
            s.self_s
            for key, s in self.stats.items()
            if s.layer == layer and (names is None or key.split(".")[1] in names)
        )
