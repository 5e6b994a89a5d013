"""Per-layer attribution for the traced benchmark run.

The program is not edited: this module wraps the public functions,
methods and properties of each layer's modules from the outside, for the
length of one traced section, and restores the originals afterwards.

A *span* is recorded where control crosses into a different layer (name,
start, end, parent span).  A call that stays inside the current layer
only bumps counters, so a layer's self time is the time its outermost
spans cover minus the time their child spans (other layers) cover.
Generator functions (the DES processes) get one span per resumption.
Spans stay in memory and are written to a ``.npz`` file at the end.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import time

#: Module (or package, meaning all its submodules) -> layer.
MODULE_LAYERS = {
    "repro.des": "des",
    "repro.core.schedulers.scheduler": "sched",
    "repro.core.schedulers.base": "sched",
    "repro.core.schedulers.backends": "sched",
    "repro.core.schedulers.selection": "ready",
    "repro.core.schedulers.lifecycle": "lifecycle",
    "repro.core.schedulers.commengine": "comm",
    "repro.core.schedulers.offload": "offload",
    "repro.core.schedulers.unified": "unified",
    "repro.core.costs": "costs",
    "repro.core.grid": "grid",
    "repro.core.patch": "grid",
    "repro.core.taskgraph": "taskgraph",
    "repro.core.loadbalancer": "balancer",
    "repro.core.datawarehouse": "dw",
    "repro.core.variables": "dw",
    "repro.core.trace": "trace",
    "repro.core.controller": "controller",
    "repro.simmpi": "mpi",
    "repro.sunway": "sunway",
    "repro.burgers": "kernel",
    "repro.telemetry": "telemetry",
    "repro.verify": "verify",
    "repro.faults": "faults",
    "repro.harness": "harness",
}

#: Classes whose layer differs from their module's.
CLASS_LAYERS = {
    "repro.core.schedulers.base:ReadinessTracker": "ready",
    "repro.core.schedulers.backends:HostThreadPoolBackend": "pool",
    "repro.core.schedulers.backends:WorkerPool": "pool",
}

#: Constructors that are timed or counted (other ``__init__``s are not wrapped).
INIT_CLASSES = {
    "repro.des.event:Timeout",
    "repro.des.process:Process",
    "repro.core.taskgraph:TaskGraph",
    "repro.core.loadbalancer:LoadBalancer",
    "repro.core.schedulers.scheduler:SunwayScheduler",
    "repro.core.schedulers.unified:UnifiedHostScheduler",
    "repro.core.controller:SimulationController",
}

STEP = "repro.des.simulator:Simulator.step"
TIMEOUT_INIT = "repro.des.event:Timeout.__init__"
PROCESS_INIT = "repro.des.process:Process.__init__"

LAYERS = tuple(sorted(set(MODULE_LAYERS.values()) | set(CLASS_LAYERS.values())))
_LAYER_INDEX = {layer: i for i, layer in enumerate(LAYERS)}


def _kernel_cells(args, kwargs, result):
    # plain attributes only: the wrapped ``interior`` property would count a dw call
    out = args[1]
    g = out.ghosts
    nx, ny, nz = out.data.shape
    return (nx - 2 * g) * (ny - 2 * g) * (nz - 2 * g)


def _kernel_bytes(args, kwargs, result):
    # computed, not measured: one read of the ghosted input, one write of the interior
    return args[0].data.nbytes + _kernel_cells(args, kwargs, result) * args[1].data.itemsize


_KERNELS = (
    "repro.burgers.kernel:apply_kernel",
    "repro.burgers.kernel:apply_kernel_cell_loop",
    "repro.burgers.kernel_simd:apply_kernel_simd",
)

#: Extra per-call tallies: wrapped key -> [(tally name, fn(args, kwargs, result))].
TALLIES = {
    "repro.core.schedulers.base:ReadinessTracker.pop_ready": [
        ("ready.pop_hits", lambda a, kw, r: r is not None)
    ],
    "repro.simmpi.request:Request.complete": [("mpi.test_hits", lambda a, kw, r: bool(r))],
    "repro.core.trace:Tracer.record": [("trace.spans", lambda a, kw, r: a[0].enabled)],
    **{k: [("kernel.cells", _kernel_cells), ("kernel.bytes", _kernel_bytes)] for k in _KERNELS},
}


class SpanTracer:
    """Counts, self time and spans of one traced section."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: wrapped key ("module:Qual.name") -> calls (resumptions for generators)
        self.counts: dict[str, int] = {}
        #: layer -> calls into any of its wrapped functions
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: wrapped key -> summed duration of the spans it opened
        self.inclusive_s: dict[str, float] = {}
        self.tallies: dict[str, float] = {}
        self._stack: list[list] = []  # [layer, t0, child seconds, span index]
        # one slot per span, in opening order: the index is the span id
        self.span_parent = array.array("i")
        self.span_layer = array.array("b")
        self.span_t0 = array.array("d")
        self.span_dur = array.array("f")
        self.origin = time.perf_counter()

    def _open(self, layer: str) -> list:
        stack = self._stack
        sid = len(self.span_t0)
        self.span_parent.append(stack[-1][3] if stack else -1)
        self.span_layer.append(_LAYER_INDEX[layer])
        self.span_t0.append(0.0)
        self.span_dur.append(0.0)
        frame = [layer, 0.0, 0.0, sid]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list, key: str) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, t0, child, sid = frame
        dur = t1 - t0
        self.self_s[layer] += dur - child
        self.inclusive_s[key] = self.inclusive_s.get(key, 0.0) + dur
        if stack:
            stack[-1][2] += dur
        self.span_t0[sid] = t0 - self.origin
        self.span_dur[sid] = dur

    def _count(self, key: str, layer: str) -> bool:
        """Count one call; True when it crosses into ``layer`` (opens a span)."""
        self.counts[key] = self.counts.get(key, 0) + 1
        self.layer_calls[layer] += 1
        return not self._stack or self._stack[-1][0] != layer

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn, key: str, layer: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, key, layer)
        tallies = TALLIES.get(key, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._count(key, layer):
                result = fn(*args, **kwargs)
            else:
                frame = tracer._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame, key)
            for name, tally in tallies:
                tracer.tallies[name] = tracer.tallies.get(name, 0) + tally(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, key: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return (yield from self.resumptions(fn(*args, **kwargs), key, layer))

        return traced

    def resumptions(self, gen, key: str, layer: str):
        """Drive ``gen`` with one span (and count) per resumption."""
        value = exc = None
        while True:
            frame = self._open(layer) if self._count(key, layer) else None
            try:
                item = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    self._close(frame, key)
            try:
                value, exc = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # forwarded into the wrapped generator
                value, exc = None, e

    def wrap_process_init(self, init, key: str):
        """``Process.__init__`` that also traces the process body's resumptions.

        DES process bodies are often nested functions (rank drivers,
        worker threads, kernel flights) that no wrapper can reach; their
        layer is the one of the code that defines them.
        """
        traced_init = self.wrap(init, key, "des")

        @functools.wraps(init)
        def process_init(proc, sim, generator, name=None):
            name = name or getattr(generator, "__name__", "process")
            where = _code_layer(generator)
            if where is not None:
                generator = self.resumptions(generator, *where)
            traced_init(proc, sim, generator, name=name)

        return process_init

    # -- output --------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Write the spans: parent index, layer, start (s from ``reset``), duration (s)."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(LAYERS),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            layer=np.frombuffer(self.span_layer, dtype=np.int8),
            t0=np.frombuffer(self.span_t0, dtype=np.float64),
            duration=np.frombuffer(self.span_dur, dtype=np.float32),
        )


def _code_layer(gen) -> tuple[str, str] | None:
    """(key, layer) of the code a generator object runs, or None if unmapped."""
    module = gen.gi_frame.f_globals.get("__name__", "") if gen.gi_frame else ""
    owner = gen.__qualname__.split(".")[0]
    layer = CLASS_LAYERS.get(f"{module}:{owner}")
    if layer is None:
        for prefix, candidate in MODULE_LAYERS.items():
            if module == prefix or module.startswith(prefix + "."):
                layer = candidate
                break
    return None if layer is None else (f"{module}:{gen.__qualname__}", layer)


def _modules() -> list[tuple[str, str]]:
    """Every concrete module of :data:`MODULE_LAYERS` with its layer."""
    out = []
    for name, layer in MODULE_LAYERS.items():
        mod = importlib.import_module(name)
        out.append((name, layer))
        if hasattr(mod, "__path__"):
            for info in pkgutil.walk_packages(mod.__path__, name + "."):
                importlib.import_module(info.name)
                out.append((info.name, layer))
    return out


def _wrappable_class(cls) -> bool:
    return not (
        issubclass(cls, (BaseException, enum.Enum)) or getattr(cls, "_is_protocol", False)
    )


class Installation:
    """The wrappers of one :class:`SpanTracer`; ``remove()`` restores the program."""

    def __init__(self, tracer: SpanTracer):
        self._undo: list[tuple[object, str, object]] = []
        replaced: dict[int, object] = {}
        for modname, layer in _modules():
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    replaced[id(obj)] = tracer.wrap(obj, f"{modname}:{name}", layer)
                elif inspect.isclass(obj) and _wrappable_class(obj):
                    cls_key = f"{modname}:{obj.__qualname__}"
                    self._wrap_class(tracer, obj, cls_key, CLASS_LAYERS.get(cls_key, layer))
        # rebind module-level names everywhere, ``from x import f`` copies included
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, obj in list(namespace.items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, tracer: SpanTracer, cls, cls_key: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr == "__call__"
            if attr == "__init__":
                public = cls_key in INIT_CLASSES
            if not public:
                continue
            key = f"{cls_key}.{attr}"
            if key == PROCESS_INIT:
                self._set(cls, attr, tracer.wrap_process_init(value, key))
            elif inspect.isfunction(value):
                self._set(cls, attr, tracer.wrap(value, key, layer))
            elif isinstance(value, property) and value.fget is not None:
                fget = tracer.wrap(value.fget, key, layer)
                self._set(cls, attr, property(fget, value.fset, value.fdel, value.__doc__))
            elif isinstance(value, (staticmethod, classmethod)):
                self._set(cls, attr, type(value)(tracer.wrap(value.__func__, key, layer)))

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


# -- per-layer metrics ---------------------------------------------------------------

_PER = "1/rank-step"

#: (name, unit, better) of every per-layer metric, in print order.  Counts
#: in ``1/rank-step`` are divided by the simulated rank-timesteps of the
#: traced repetition; ``*.self_s`` are host seconds of that repetition.
PER_LAYER = [
    ("des.events", _PER, "lower"),
    ("des.timeouts", _PER, "lower"),
    ("des.processes", _PER, "lower"),
    ("des.self_s", "s", "lower"),
    ("sched.resumes", _PER, "lower"),
    ("sched.self_s", "s", "lower"),
    ("ready.pop_calls", _PER, "lower"),
    ("ready.pop_hit_ratio", "ratio", "higher"),
    ("ready.self_s", "s", "lower"),
    ("grid.calls", _PER, "lower"),
    ("grid.self_s", "s", "lower"),
    ("costs.calls", _PER, "lower"),
    ("costs.self_s", "s", "lower"),
    ("comm.items", _PER, "lower"),
    ("comm.self_s", "s", "lower"),
    ("mpi.sends", _PER, "lower"),
    ("mpi.bytes", "B/rank-step", "lower"),
    ("mpi.retransmits", _PER, "lower"),
    ("mpi.test_hit_ratio", "ratio", "higher"),
    ("mpi.self_s", "s", "lower"),
    ("offload.launches", _PER, "lower"),
    ("offload.retries", _PER, "lower"),
    ("offload.fallbacks", _PER, "lower"),
    ("offload.clean_ratio", "ratio", "higher"),
    ("offload.self_s", "s", "lower"),
    ("lifecycle.transitions", _PER, "lower"),
    ("lifecycle.emits", _PER, "lower"),
    ("lifecycle.self_s", "s", "lower"),
    ("telemetry.events", _PER, "lower"),
    ("telemetry.self_s", "s", "lower"),
    ("telemetry.ledger_s", "s", "lower"),
    ("telemetry.analyze_s", "s", "lower"),
    ("verify.events", _PER, "lower"),
    ("verify.violations", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("trace.spans", _PER, "lower"),
    ("trace.self_s", "s", "lower"),
    ("faults.injected", _PER, "lower"),
    ("faults.self_s", "s", "lower"),
    ("unified.resumes", _PER, "lower"),
    ("unified.self_s", "s", "lower"),
    ("pool.units", _PER, "lower"),
    ("pool.self_s", "s", "lower"),
    ("kernel.calls", _PER, "lower"),
    ("kernel.cells", _PER, "lower"),
    ("kernel.flops", _PER, "lower"),
    ("kernel.bytes_computed", "B/rank-step", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.cells_per_s", "1/s", "higher"),
    ("athread.spawns", _PER, "lower"),
    ("fastmath.exp_calls", _PER, "lower"),
    ("sunway.self_s", "s", "lower"),
    ("dw.puts", _PER, "lower"),
    ("dw.gets", _PER, "lower"),
    ("dw.scrubs", _PER, "lower"),
    ("dw.self_s", "s", "lower"),
    ("taskgraph.self_s", "s", "lower"),
    ("controller.self_s", "s", "lower"),
    ("setup.taskgraph_s", "s", "lower"),
    ("setup.balancer_s", "s", "lower"),
    ("setup.schedulers_s", "s", "lower"),
    ("harness.cells", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("tracing.overhead", "ratio", "lower"),
    ("xcheck.des_events", "count", "lower"),
    ("xcheck.des_timeouts", "count", "lower"),
]

_SCHED = "repro.core.schedulers."


def layer_metrics(tracer: SpanTracer, cells, outputs: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced repetition.

    ``tracing.overhead`` and ``xcheck.*`` come from other sections of the
    traced run and are filled in by the caller.
    """
    rank_steps = sum(c.rank_steps for c in cells)
    plans = outputs.get("plans", ())
    count = tracer.counts.get
    incl = tracer.inclusive_s.get

    def calls(*keys: str) -> int:
        return sum(count(k, 0) for k in keys)

    def prefixed(prefix: str) -> int:
        return sum(n for k, n in tracer.counts.items() if k.startswith(prefix))

    def stat(name: str, real_only: bool = False) -> int:
        chosen = [c for c in cells if not real_only or c.label.endswith("/real")]
        return sum(getattr(c.result.stats, name) for c in chosen)

    def ratio(hits: float, attempts: float) -> float:
        return hits / attempts if attempts else 0.0

    launches = calls(_SCHED + "offload:OffloadEngine.launch")
    retries, fallbacks = stat("kernel_retries"), stat("mpe_fallbacks")
    pops = calls(_SCHED + "base:ReadinessTracker.pop_ready")
    tests = calls("repro.simmpi.request:Request.complete")
    cells_done = tracer.tallies.get("kernel.cells", 0)
    totals = {
        "des.events": calls(STEP),
        "des.timeouts": calls(TIMEOUT_INIT),
        "des.processes": calls(PROCESS_INIT),
        "sched.resumes": calls(_SCHED + "scheduler:SunwayScheduler.execute_timestep"),
        "ready.pop_calls": pops,
        "grid.calls": tracer.layer_calls["grid"],
        "costs.calls": tracer.layer_calls["costs"],
        "comm.items": calls(_SCHED + "commengine:CommEngine.apply"),
        "mpi.sends": calls("repro.simmpi.comm:Comm.isend"),
        "mpi.bytes": sum(c.result.bytes_sent for c in cells),
        "mpi.retransmits": stat("mpi_retries"),
        "offload.launches": launches,
        "offload.retries": retries,
        "offload.fallbacks": fallbacks,
        "lifecycle.transitions": calls(_SCHED + "lifecycle:TaskLifecycle.transition"),
        "lifecycle.emits": calls(_SCHED + "lifecycle:TaskLifecycle.emit"),
        "telemetry.events": prefixed("repro.telemetry.collect:"),
        "verify.events": prefixed("repro.verify.validator:"),
        "trace.spans": tracer.tallies.get("trace.spans", 0),
        "faults.injected": sum(sum(p["injected"].values()) for p in plans),
        "unified.resumes": calls(_SCHED + "unified:UnifiedHostScheduler.execute_timestep"),
        "pool.units": calls(_SCHED + "backends:WorkerPool.push"),
        "kernel.calls": calls(*_KERNELS),
        "kernel.cells": cells_done,
        "kernel.flops": stat("kernel_flops", real_only=True),
        "kernel.bytes_computed": tracer.tallies.get("kernel.bytes", 0),
        "athread.spawns": calls("repro.sunway.athread:AthreadRuntime.spawn"),
        "fastmath.exp_calls": calls(
            "repro.sunway.fastmath:fast_exp", "repro.sunway.fastmath:ieee_exp"
        ),
        "dw.puts": calls(
            "repro.core.datawarehouse:DataWarehouse.put",
            "repro.core.datawarehouse:DataWarehouse.put_reduction",
        ),
        "dw.gets": calls(
            "repro.core.datawarehouse:DataWarehouse.get",
            "repro.core.datawarehouse:DataWarehouse.get_reduction",
        ),
        "dw.scrubs": calls("repro.core.datawarehouse:DataWarehouse.scrub_named"),
    }
    out = {name: n / rank_steps for name, n in totals.items()}
    out.update({f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS})
    out.update(
        {
            "ready.pop_hit_ratio": ratio(tracer.tallies.get("ready.pop_hits", 0), pops),
            "mpi.test_hit_ratio": ratio(tracer.tallies.get("mpi.test_hits", 0), tests),
            "offload.clean_ratio": ratio(launches - retries - fallbacks, launches),
            "telemetry.ledger_s": incl("repro.telemetry.ledger:build_ledger", 0.0),
            "telemetry.analyze_s": incl("repro.telemetry.analyzer:analyze", 0.0),
            "verify.violations": sum(p["violations"] for p in plans),
            "kernel.cells_per_s": ratio(cells_done, tracer.self_s["kernel"]),
            "setup.taskgraph_s": incl("repro.core.taskgraph:TaskGraph.__init__", 0.0),
            "setup.balancer_s": incl("repro.core.loadbalancer:LoadBalancer.assign", 0.0),
            "setup.schedulers_s": incl(_SCHED + "scheduler:SunwayScheduler.__init__", 0.0)
            + incl(_SCHED + "unified:UnifiedHostScheduler.__init__", 0.0),
            "harness.cells": calls("repro.harness.runner:run_experiment"),
        }
    )
    return out
