"""Traced-run instrumentation, installed from outside the program.

Three parts, all owned by one :class:`Tracer` that the traced round creates,
installs around the timed region, and removes afterwards:

* **Spans** around calls into the program's public functions (topology and
  traffic builders, protocol factory, flow registration, the simulation
  loops, result collection), kept in memory as ``(id, parent, run, name,
  category, start, end)`` and written out when the round ends.
* **A stack sampler**: ``setitimer(ITIMER_PROF)`` delivers ``SIGPROF`` to
  this process every millisecond of CPU time; the handler folds the
  interrupted Python frame into a module layer and credits it the wall time
  since the previous sample, so the layers' self times sum to the sampled
  wall time and nothing is hidden (frames outside any layer land in
  ``unattributed``).
* **Call counters** on ``max_min_allocation`` (as :mod:`repro.sim.fluid`
  looks it up) and on the result store's ``get``/``put``; the max-min calls'
  inputs and outputs are kept for the benchmark's own optimality check.

A hook whose target no longer exists is skipped and listed in
``Tracer.missing`` rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Sampler period in seconds of process CPU time.
SAMPLE_PERIOD_S = 0.001

#: Module layers, matched as path suffixes below ``repro/`` (first match wins).
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("sim/engine.py", "sim/wheel.py")),
    ("port", ("sim/port.py", "sim/link.py")),
    ("switch", ("sim/switch.py", "sim/routing.py")),
    ("pfc", ("sim/pfc.py",)),
    ("host", ("sim/host.py", "sim/flow.py", "sim/node.py")),
    ("packet", ("sim/packet.py",)),
    ("network", ("sim/network.py",)),
    ("monitor", ("sim/monitor.py",)),
    ("fluid", ("sim/fluid.py", "experiments/flowsim.py")),
    ("vai_sf", ("core/variable_ai.py", "core/sampling_frequency.py")),
    ("max_min", ("core/fluid_model.py",)),
    ("cc", ("cc/",)),
    ("metrics", ("metrics/",)),
    ("runner", ("experiments/",)),
)
LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS) + ("unattributed",)

#: Public functions wrapped with spans: (module, attribute path, category).
SPAN_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.runner", "build_star", "build"),
    ("repro.experiments.runner", "build_fattree", "build"),
    ("repro.experiments.runner", "generate_poisson_traffic", "build"),
    ("repro.experiments.runner", "make_cc", "build"),
    ("repro.experiments.flowsim", "build_star", "build"),
    ("repro.experiments.flowsim", "build_fattree", "build"),
    ("repro.experiments.flowsim", "generate_poisson_traffic", "build"),
    ("repro.sim.network", "Network.add_flow", "build"),
    ("repro.sim.fluid", "FluidEngine.add_flow", "build"),
    ("repro.sim.network", "Network.run_until_flows_complete", "simulate"),
    ("repro.sim.fluid", "FluidEngine.run", "simulate"),
    ("repro.experiments.runner", "collect_records", "collect"),
    ("repro.experiments.runner", "jain_series", "collect"),
    ("repro.experiments.runner", "convergence_time_ns", "collect"),
    ("repro.experiments.runner", "queue_stats", "collect"),
    ("repro.experiments.flowsim", "jain_series", "collect"),
    ("repro.experiments.flowsim", "convergence_time_ns", "collect"),
    ("repro.experiments.flowsim", "queue_stats", "collect"),
    # The fluid datacenter runner's collection step has no public name.
    ("repro.experiments.flowsim", "_records_against", "collect"),
)

Span = Tuple[int, int, int, str, str, float, float]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for ``module`` + dotted ``path``; raises if absent."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    getattr(owner, parts[-1])
    return owner, parts[-1]


class Tracer:
    """Spans, a stack sampler and call counters for one traced round."""

    def __init__(self, bench_files: Tuple[str, ...]) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.samples = 0
        #: ``(run id, capacities, flow links, caps, rates)`` per call.
        self.max_min_calls: List[Tuple[int, dict, dict, Optional[dict], dict]] = []
        self.max_min_s = 0.0
        self.max_min_flows = 0
        self.store_get_s = 0.0
        self.store_put_s = 0.0
        self._bench_files = bench_files
        self._stack: List[int] = []
        self._run_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[Any, Optional[str]] = {}
        self._last_sample = 0.0
        self._prev_handler: Any = None

    # -- spans -------------------------------------------------------------

    def span(self, name: str, category: str) -> Callable[[Callable], Callable]:
        """Decorator factory recording one span per call."""

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append((sid, parent, self._run_id, name, category, 0.0, 0.0))
                self._stack.append(sid)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[sid] = (sid, parent, self._run_id, name, category, start, end)

            return wrapper

        return decorate

    def new_run(self) -> int:
        """Start a new simulation id; later spans carry it."""
        self._run_id += 1
        return self._run_id

    def category_s(self, category: str) -> float:
        """Total time in spans of ``category`` not nested in the same category."""
        cats = {sid: cat for sid, _, _, _, cat, _, _ in self.spans}
        return sum(
            end - start
            for sid, parent, _, _, cat, start, end in self.spans
            if cat == category and cats.get(parent) != category
        )

    # -- hooks -------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public-call hooks and start the sampler."""
        for module, path, category in SPAN_HOOKS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}:{path}")
                continue
            self._replace(owner, attr, self.span(path, category)(getattr(owner, attr)))
        try:
            fluid, attr = _resolve("repro.sim.fluid", "max_min_allocation")
            self._replace(fluid, attr, self._count_max_min(getattr(fluid, attr)))
        except (ImportError, AttributeError):
            self.missing.append("repro.sim.fluid:max_min_allocation")
        try:
            store_cls, _ = _resolve("repro.experiments.store", "ResultStore.get")
            self._replace(store_cls, "get", self._timed(store_cls.get, "store_get_s"))
            self._replace(store_cls, "put", self._timed(store_cls.put, "store_put_s"))
        except (ImportError, AttributeError):
            self.missing.append("repro.experiments.store:ResultStore")
        self._prev_handler = signal.signal(signal.SIGPROF, self._on_sample)
        self._last_sample = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def uninstall(self) -> None:
        """Stop the sampler and put every wrapped name back."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._prev_handler or signal.SIG_DFL)
        # The tail since the last sample was not observed by any sample.
        self.self_s["unattributed"] += time.perf_counter() - self._last_sample
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_max_min(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(capacities, flow_links, caps=None):
            start = time.perf_counter()
            rates = fn(capacities, flow_links, caps)
            self.max_min_s += time.perf_counter() - start
            self.max_min_flows += len(flow_links)
            self.max_min_calls.append(
                (
                    self._run_id,
                    dict(capacities),
                    {fid: tuple(links) for fid, links in flow_links.items()},
                    dict(caps) if caps is not None else None,
                    dict(rates),
                )
            )
            return rates

        return wrapper

    def _timed(self, fn: Callable, total: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, total, getattr(self, total) + time.perf_counter() - start)

        return wrapper

    # -- sampler -----------------------------------------------------------

    def _on_sample(self, _signum: int, frame: Any) -> None:
        now = time.perf_counter()
        self.self_s[self._layer_of(frame)] += now - self._last_sample
        self._last_sample = now
        self.samples += 1

    def _layer_of(self, frame: Any) -> str:
        """The layer of the innermost program frame on the stack.

        Frames of the standard library or third-party packages are skipped
        upwards to their program caller; frames of the benchmark's own files
        (hook wrappers, the round driver) stop the walk as ``unattributed``.
        """
        while frame is not None:
            code = frame.f_code
            layer = self._layer_cache.get(code, "")
            if layer == "":
                layer = self._classify(code.co_filename)
                self._layer_cache[code] = layer
            if layer is not None:
                return layer
            frame = frame.f_back
        return "unattributed"

    def _classify(self, filename: str) -> Optional[str]:
        """Layer name, ``"unattributed"``, or None to keep walking outward."""
        path = filename.replace("\\", "/")
        if path.endswith(self._bench_files):
            return "unattributed"
        marker = path.rfind("/repro/")
        if marker < 0:
            return None
        rel = path[marker + len("/repro/"):]
        for name, suffixes in LAYERS:
            if rel.startswith(suffixes):
                return name
        return "unattributed"
