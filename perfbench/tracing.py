"""Spans around the program's layers, installed from outside the program.

``Tracer.install`` replaces the module attributes through which rcmsim calls
its layers with wrappers that record a span (name, start, end, parent) per
call; ``Patches.restore`` puts the originals back. Spans live in flat arrays
in memory and are written out once, at the end of the run. A layer's self
time is its span's duration minus the time its child spans cover.

The frame pass is a class (``kernels.KinFrames``, reached through
``robot.KinFrames``): it is traced through a subclass whose constructor is
one span and whose lazily computed attributes time their first computation.
"""

from __future__ import annotations

import importlib
import logging
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name): every call the program makes through these
# attributes is one span. Several attributes may share a span name.
FUNCTIONS = [
    ("sim", "run_episode", "sim.run_episode"),
    ("harness", "run_episode", "sim.run_episode"),
    ("sim", "step", "sim.rk4_step"),
    ("sim", "spiral_reference", "scenarios.reference"),
    ("sim", "trocar_schedule_eval", "scenarios.trocar"),
    ("sim", "disturbance_eval", "scenarios.disturbance"),
    ("sim", "read_trace_csv", "sim.trace_read"),
    ("controllers", "build_snapshot", "controllers.snapshot"),
    ("controllers", "constraint_from_kin", "rcm.constraint"),
    ("controllers", "p_approach_torque", "controllers.p_approach"),
    ("controllers", "z_approach_torque", "controllers.z_approach"),
    ("controllers", "uk_torque", "controllers.uk"),
    ("controllers", "observer_step", "controllers.observer"),
    ("controllers", "compensation_torque", "controllers.compensation"),
    ("controllers", "orth_projector", "numerics.projector"),
    ("controllers", "projector_and_pinv", "numerics.projector"),
    ("controllers", "pinv", "numerics.pinv"),
    ("controllers", "matrix_sqrt", "numerics.matrix_sqrt"),
    ("controllers", "small_inv", "numerics.small_inv"),
    ("projection", "small_inv", "numerics.small_inv"),
    ("controllers", "sym_inv", "projection.sym_inv"),
    ("cli", "parse_config", "harness.config"),
    ("cli", "run_matrix", "harness.run_matrix"),
    ("harness", "_execute", "harness.execute"),
    ("harness", "compute_metrics", "harness.metrics"),
]
# (module, class, method, span name)
METHODS = [
    ("sim", "SimTrace", "to_csv", "sim.trace_write"),
    ("harness", "RunConfig", "build", "harness.build"),
]
# First computation of these lazy KinFrames attributes: the Jacobian rates
# belong to the frame pass, the rest are the dynamics terms.
FRAME_RATES = ("_rates",)
DYNAMICS = ("M", "g", "h", "c", "Mdot")


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value):
        # a class keeps the plain function, not what attribute access binds
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _module(name: str):
    return importlib.import_module(f"rcmsim.{name}")


@dataclass
class Episode:
    """One ``run_episode`` call: its wall time and ticks, the host's
    slowdown around it, and the seconds spent measuring that slowdown."""

    seconds: float
    ticks: int
    slowdown: float
    probe_s: float


class EpisodeTimer:
    """Wall time and tick count of every ``run_episode`` call, in call order
    (two clock reads per episode), with the host's slowdown measured right
    before and right after it."""

    def __init__(self, slowdown):
        self.episodes: list[Episode] = []
        self._slowdown = slowdown

    def install(self, patches: Patches):
        for mod in ("sim", "harness"):
            patches.set(_module(mod), "run_episode", self._episode(getattr(_module(mod), "run_episode")))

    def _episode(self, fn):
        clock = time.perf_counter

        def run_episode(*args, **kwargs):
            probe_start = clock()
            before = self._slowdown()
            start = clock()
            trace = fn(*args, **kwargs)
            end = clock()
            after = self._slowdown()
            probe_s = (start - probe_start) + (clock() - end)
            self.episodes.append(Episode(end - start, trace.filled, (before * after) ** 0.5, probe_s))
            return trace

        return run_episode

    def take(self) -> list[Episode]:
        """The episodes since the last call."""
        out, self.episodes = self.episodes, []
        return out


class DampedInverseCounter(logging.Handler):
    """Counts the damped-inverse fallbacks ``projection.sym_inv`` logs."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1

    def attach(self):
        log = logging.getLogger("rcmsim.projection")
        log.addHandler(self)
        # counted here instead of printed once per tick
        log.propagate = False


class Tracer:
    """Spans in flat arrays: name id, start and end (ns), parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack, start, end, parent, ids = self._stack, self.start, self.end, self.parent, self.name_id

        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, patches: Patches):
        """Wrap every layer boundary the program still has; a boundary that
        is gone is listed in ``missing`` and its metrics read 0."""
        for mod, attr, name in FUNCTIONS:
            owner = _module(mod)
            if not hasattr(owner, attr):
                self.missing.append(f"{mod}.{attr}")
                continue
            patches.set(owner, attr, self.wrap(name, getattr(owner, attr)))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(_module(mod), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(f"{mod}.{cls_name}.{attr}")
                continue
            patches.set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        robot = _module("robot")
        if hasattr(robot, "KinFrames"):
            patches.set(robot, "KinFrames", self._traced_frames(robot.KinFrames))
        else:
            self.missing.append("robot.KinFrames")

    def _traced_frames(self, base: type) -> type:
        namespace = {"__init__": self.wrap("kernels.frames", base.__init__)}
        for attrs, name in ((FRAME_RATES, "kernels.rates"), (DYNAMICS, "kernels.dynamics")):
            for attr in attrs:
                fn = _lazy_function(base, attr)
                if fn is None:
                    self.missing.append(f"KinFrames.{attr}")
                    continue
                namespace[attr] = _FirstRead(attr, self.wrap(name, fn))
        return type(base.__name__, (base,), namespace)

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, with per-span self time."""
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "self": dur - child,
        }

    def write(self, path: str):
        s = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,self_ns\n")
            for i, (n, a, b, p, own) in enumerate(
                zip(s["name"].tolist(), s["start"].tolist(), s["end"].tolist(),
                    s["parent"].tolist(), s["self"].tolist())
            ):
                fh.write(f"{i},{self.names[n]},{a},{b},{p},{own}\n")


class _FirstRead:
    """Non-data descriptor: computes on first read and stores the value on
    the instance, as the program's own lazy attributes do."""

    def __init__(self, attr: str, fn):
        self.attr = attr
        self.fn = fn

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attr] = self.fn(obj)
        return value


def _lazy_function(cls: type, attr: str):
    """The function behind a lazily computed attribute (the program's own
    ``_lazy`` descriptor or a ``functools.cached_property``), or None."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            descr = klass.__dict__[attr]
            return getattr(descr, "fn", None) or getattr(descr, "func", None)
    return None


def layer_metrics(tracer: Tracer, ticks: int, slowdown: float) -> dict:
    """Per-layer figures from the spans: self time per tick, per-call times
    for the harness and I/O layers, and the tick period percentiles; every
    time is divided by the host's median ``slowdown`` over the spans."""
    s = tracer.spans()
    for key in ("start", "end", "self"):
        s[key] = s[key] / slowdown
    names = tracer.names

    def sel(*span_names):
        ids = [names.index(n) for n in span_names if n in names]
        return np.isin(s["name"], ids)

    def self_us_per_tick(*span_names):
        return float(s["self"][sel(*span_names)].sum()) / 1e3 / max(ticks, 1)

    def mean_self(span_name, scale):
        mask = sel(span_name)
        n = int(mask.sum())
        return float(s["self"][mask].sum()) * scale / n if n else 0.0

    def mean_dur(span_name, scale):
        mask = sel(span_name)
        n = int(mask.sum())
        return float((s["end"] - s["start"])[mask].sum()) * scale / n if n else 0.0

    # tick period: consecutive starts of the first per-tick call in an episode
    mask = sel("scenarios.trocar")
    starts, parents = s["start"][mask], s["parent"][mask]
    same = parents[1:] == parents[:-1]
    periods = np.diff(starts)[same] / 1e3
    p50, p99 = (np.percentile(periods, [50, 99]).tolist() if periods.size else (0.0, 0.0))

    executes = int(sel("harness.execute").sum())
    return {
        "kernels.frame_pass_us": self_us_per_tick("kernels.frames", "kernels.rates"),
        "kernels.dynamics_us": self_us_per_tick("kernels.dynamics"),
        "kernels.frame_passes_per_tick": int(sel("kernels.frames").sum()) / max(ticks, 1),
        "rcm.constraint_us": self_us_per_tick("rcm.constraint"),
        "controllers.snapshot_us": self_us_per_tick("controllers.snapshot"),
        "controllers.p_approach_us": self_us_per_tick("controllers.p_approach"),
        "controllers.z_approach_us": self_us_per_tick("controllers.z_approach"),
        "controllers.uk_us": self_us_per_tick("controllers.uk"),
        "controllers.observer_us": self_us_per_tick("controllers.observer"),
        "controllers.compensation_us": self_us_per_tick("controllers.compensation"),
        "numerics.projector_us": self_us_per_tick("numerics.projector"),
        "numerics.small_inv_us": self_us_per_tick("numerics.small_inv"),
        "numerics.matrix_sqrt_us": self_us_per_tick("numerics.matrix_sqrt"),
        "numerics.pinv_us": self_us_per_tick("numerics.pinv"),
        "projection.sym_inv_us": self_us_per_tick("projection.sym_inv"),
        "scenarios.reference_us": self_us_per_tick("scenarios.reference", "scenarios.trocar"),
        "scenarios.disturbance_us": self_us_per_tick("scenarios.disturbance"),
        "sim.rk4_step_us": self_us_per_tick("sim.rk4_step"),
        "sim.loop_us": self_us_per_tick("sim.run_episode"),
        "sim.tick_p50_us": p50,
        "sim.tick_p99_us": p99,
        "sim.trace_write_s": mean_dur("sim.trace_write", 1e-9),
        "sim.trace_read_s": mean_dur("sim.trace_read", 1e-9),
        "harness.config_us": mean_self("harness.config", 1e-3),
        "harness.build_ms": mean_self("harness.build", 1e-6),
        "harness.metrics_ms": mean_self("harness.metrics", 1e-6),
        "harness.artifacts_ms": (
            float(s["self"][sel("harness.execute", "harness.run_matrix")].sum()) * 1e-6 / executes
            if executes else 0.0
        ),
    }
