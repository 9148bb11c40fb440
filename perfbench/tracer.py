"""Outside-in span tracer for the weakdep layers.

The tracer wraps, by introspection, every public function of the six
weakdep modules (including names re-bound by ``from .x import y``) and the
public methods (plus ``__call__``) of every class they define, so a
function added later is traced without editing this file.  It also wraps
the numpy/scipy entry points that make up the stages of a check (seeding,
the moving-average filter, quadrature); a stage span is named after the
layer that called it, e.g. ``models.seed`` for ``default_rng`` called
from ``models.sample_path``.

Spans carry a name, start, end and parent and stay in memory (compact
arrays) until ``save`` writes them.  Aggregates are kept as spans close:
calls, inclusive time (outermost span of a name only, so recursion is not
double counted) and self time (duration minus time covered by children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("models", "coefficients", "blocks", "bounds", "verify", "cli")

# numpy/scipy entry points timed as stages: (module, attribute) -> stage
STAGE_ENTRY_POINTS = {
    ("numpy.random", "default_rng"): "seed",
    ("numpy", "convolve"): "filter",
    ("scipy.integrate", "quad"): "quad",
}

# layer functions and methods whose span takes a stage name instead of their own
STAGE_NAMES = {
    ("cli", "_load_model"): "cli.load_model",
    ("cli", "emit_report"): "cli.emit",
    ("cli", "_csv_text"): "cli.emit",
    ("cli", "_write_or_print"): "cli.emit",
    ("models", "sample"): "models.draw",
    ("models", "chf"): "models.chf",
    ("models", "__call__"): "models.filter",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stage_ids: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Drop spans and aggregates; installed wrappers stay in place."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = "none"
        self._stack: list[list] = []  # open spans: [index, name id, layer, start, child seconds]
        count = len(self.names)
        self._depth = [0] * count
        self._calls = [0] * count
        self._inclusive = [0.0] * count
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.op_layer_self = defaultdict(float)

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._calls.append(0)
            self._inclusive.append(0.0)
        return ident

    def calls(self, name: str) -> int:
        ident = self._name_ids.get(name)
        return 0 if ident is None else self._calls[ident]

    def inclusive(self, name: str) -> float:
        """Seconds inside spans of this name, outermost spans only."""
        ident = self._name_ids.get(name)
        return 0.0 if ident is None else self._inclusive[ident]

    # -- spans -------------------------------------------------------------

    def open(self, ident: int, layer) -> list:
        """Open a span.  layer is the module the code belongs to, or None
        for a span whose self time belongs to no layer (op roots, stages)."""
        stack = self._stack
        self.span_name.append(ident)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self._depth[ident] += 1
        now = time.perf_counter()
        self.span_start.append(now)
        self.span_end.append(now)
        frame = [len(self.span_start) - 1, ident, layer, now, 0.0]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        index, ident, layer, start, child = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.span_end[index] = end
        if stack:
            stack[-1][4] += duration
        self._calls[ident] += 1
        self._depth[ident] -= 1
        if not self._depth[ident]:
            self._inclusive[ident] += duration
        if layer is not None:
            self_time = duration - child
            self.layer_calls[layer] += 1
            self.layer_self[layer] += self_time
            self.op_layer_self[self.op, layer] += self_time

    def open_stage(self, stage: str) -> list:
        """Open a stage span, named after the nearest enclosing layer."""
        caller = "none"
        for frame in reversed(self._stack):
            if frame[2] is not None:
                caller = frame[2]
                break
        ident = self._stage_ids.get((caller, stage))
        if ident is None:
            ident = self._stage_ids[caller, stage] = self.name_id(f"{caller}.{stage}")
        return self.open(ident, None)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer):
        open_, close, ident = self.open, self.close, self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            # one span per resume, so the time is spent where it is consumed
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = open_(ident, layer)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close(frame)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(ident, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    def _wrap_stage(self, fn, stage: str):
        open_stage, close = self.open_stage, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_stage(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"weakdep.{layer}") for layer in LAYERS}
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped: dict[int, object] = {}
        classes = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if inspect.isclass(value) and value.__module__ in layer_of:
                    classes[id(value)] = value
                if attr.startswith("_") and (layer, attr) not in STAGE_NAMES:
                    continue
                if not inspect.isfunction(value) or value.__module__ not in layer_of:
                    continue
                if id(value) not in wrapped:
                    home = layer_of[value.__module__]
                    name = STAGE_NAMES.get((home, value.__name__), f"{home}.{value.__name__}")
                    wrapped[id(value)] = self._wrap(value, name, home)
                self._patch(mod, attr, wrapped[id(value)])
        for cls in classes.values():
            home = layer_of[cls.__module__]
            for attr, value in list(vars(cls).items()):
                if not inspect.isfunction(value) or (attr.startswith("_") and attr != "__call__"):
                    continue
                name = STAGE_NAMES.get((home, attr), f"{home}.{cls.__name__}.{attr}")
                self._patch(cls, attr, self._wrap(value, name, home))
        for (mod_name, attr), stage in STAGE_ENTRY_POINTS.items():
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap_stage(getattr(mod, attr), stage))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span as parallel arrays: name id, parent index, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
