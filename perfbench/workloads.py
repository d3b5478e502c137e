"""One benchmark round: build a workload's configs, simulate, check.

A round runs in a fresh interpreter started by ``run.py``::

    python3 perfbench/workloads.py --workload incast_figs --seed 1 --round 0 --mode plain

and prints one JSON object as its last stdout line.  ``--mode plain`` times
the round with every instrumentation global off; ``--mode traced`` installs
:class:`tracing.Tracer` and the program's counter registry and reports the
per-layer figures instead.  The program only ever sees configs built here;
every check on its outputs is computed by :mod:`checks`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

#: Benchmark files whose frames the sampler reports as unattributed.
BENCH_FILES = tuple(f"{HERE.name}/{p.name}" for p in HERE.glob("*.py"))

#: Per-simulation watchdog; a run that breaches it counts as failed.
WATCHDOG_S = 120.0

#: The incast pairs of the paper's figs. 8 and 9: (default, fair variant).
INCAST_PAIRS = (("hpcc", "hpcc-vai-sf"), ("swift", "swift-vai-sf"))
#: The fig-1 baselines: HPCC and Swift with their 1 Gbps-AI and probabilistic variants.
FIG1_VARIANTS = ("hpcc", "hpcc-1gbps", "hpcc-prob", "swift", "swift-1gbps", "swift-prob")

#: Fat-tree trace shape of ``hadoop_both``: a round simulates TRACES_PER_ROUND
#: independent short traces of one seed each, on each backend.
TRACE_DURATION_NS = 250_000.0
TRACES_PER_ROUND = 20
LOAD = 0.5
SIZE_SCALE = 0.1
#: A round's traces are redrawn until their offered bytes lie within this
#: share of the nominal load.  Hadoop sizes are heavy-tailed, so unconditioned
#: rounds differ in offered work by more than the run-to-run bound.
ROUND_BYTES_TOLERANCE = 0.05

INCAST = dict(
    n_senders=16,
    flow_size_bytes=1_000_000,
    flows_per_batch=2,
    batch_interval_ns=20_000.0,
    rate_bps=100e9,
    prop_delay_ns=1_000.0,
    sample_interval_ns=2_000.0,
)
FATTREE = dict(
    pods=2,
    tors_per_pod=2,
    aggs_per_pod=2,
    hosts_per_tor=4,
    spines=4,
    host_rate_bps=10e9,
    fabric_rate_bps=40e9,
    prop_delay_ns=1_000.0,
)

#: Instrumentation globals that must be None while a plain round is timed.
OFF_GLOBALS = (
    ("repro.obs.registry", "STATS"),
    ("repro.check.invariants", "CHECKER"),
    ("repro.obs.flightrec", "RECORDER"),
    ("repro.obs.tracer", "TRACER"),
    ("repro.obs.profiler", "PHASE_HOOKS"),
    ("repro.obs.profiler", "PROFILER"),
    ("repro.obs.telemetry", "TELEMETRY"),
    ("repro.obs.analytics", "ANALYTICS"),
)


def sub_seed(seed: int, *parts: int) -> int:
    """A 31-bit seed derived from the command's seed and an input index."""
    text = ":".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


# ---------------------------------------------------------------------------
# Workloads: configs(seed, round) and run(configs) -> outcome
# ---------------------------------------------------------------------------


class Workload:
    """Base: ``modules`` are imported during set-up; ``close`` releases files."""

    modules: Tuple[str, ...] = ()

    def close(self) -> None:
        pass


class Outcome:
    """What one round's simulations returned, for checking after the clock."""

    def __init__(self) -> None:
        self.results: List[Any] = []  # one per simulation, None if it raised
        self.errors: List[Optional[str]] = []
        self.extra: Dict[str, Any] = {}


def simulate_each(fns: List[Tuple[Callable, Any]], tracer: Optional[tracing.Tracer]) -> Outcome:
    out = Outcome()
    for fn, cfg in fns:
        if tracer is not None:
            tracer.new_run()
            fn = tracer.span(fn.__name__, "run")(fn)
        try:
            out.results.append(fn(cfg))
            out.errors.append(None)
        except Exception as exc:  # counted as a failed simulation
            out.results.append(None)
            out.errors.append(f"{type(exc).__name__}: {exc}")
    return out


def incast_configs(variants, seed: int) -> list:
    from repro.experiments.config import IncastConfig

    return [IncastConfig(variant=v, seed=seed, **INCAST) for v in variants]


def trace_seeds(seed: int, round_index: int) -> List[int]:
    """The round's trace seeds, conditioned on offered bytes near nominal."""
    from repro.workloads.distributions import ScaledDistribution, get_distribution
    from repro.workloads.poisson import generate_poisson_traffic

    n_hosts = FATTREE["pods"] * FATTREE["tors_per_pod"] * FATTREE["hosts_per_tor"]
    nominal = (
        LOAD * n_hosts * FATTREE["host_rate_bps"] / 8.0 * TRACE_DURATION_NS / 1e9 * TRACES_PER_ROUND
    )
    dist = ScaledDistribution(get_distribution("hadoop"), SIZE_SCALE)
    for attempt in range(1000):
        seeds = [sub_seed(seed, round_index, attempt, k) for k in range(TRACES_PER_ROUND)]
        offered = sum(
            spec.size_bytes
            for s in seeds
            for spec in generate_poisson_traffic(
                n_hosts=n_hosts,
                host_rate_bps=FATTREE["host_rate_bps"],
                load=LOAD,
                duration_ns=TRACE_DURATION_NS,
                distribution=dist,
                seed=s,
            )
        )
        if abs(offered / nominal - 1.0) <= ROUND_BYTES_TOLERANCE:
            return seeds
    raise RuntimeError(f"no trace set within {ROUND_BYTES_TOLERANCE:.0%} of nominal load")


def datacenter_configs(seed: int, round_index: int, backends: Tuple[str, ...]) -> list:
    """The round's traces on each backend in turn (all of the first, then the next)."""
    from repro.experiments.config import DatacenterConfig
    from repro.topology.fattree import FatTreeParams

    seeds = trace_seeds(seed, round_index)
    return [
        DatacenterConfig(
            variant="hpcc-vai-sf",
            workload="hadoop",
            fattree=FatTreeParams(**FATTREE),
            load=LOAD,
            duration_ns=TRACE_DURATION_NS,
            size_scale=SIZE_SCALE,
            seed=s,
            backend=backend,
        )
        for backend in backends
        for s in seeds
    ]


def check_incast(cfg, result, label: str) -> List[str]:
    """All flows complete, each above its FCT floor, bottleneck not outrun."""
    flows = result.flows
    if len(flows) != cfg.n_senders or not all(f.finish_time is not None for f in flows):
        done = sum(f.finish_time is not None for f in flows)
        return [f"{label}: {done}/{cfg.n_senders} flows completed"]
    # Star: sender -> switch -> receiver, two links each way.
    floor = checks.fct_lower_bound_ns(
        cfg.flow_size_bytes, cfg.rate_bps, checks.base_rtt_ns(2, cfg.prop_delay_ns)
    )
    problems = checks.check_fct_bounds(
        [(f.finish_time - f.start_time, floor) for f in flows], label
    )
    problems += checks.check_bottleneck_rate(
        sum(f.size for f in flows),
        min(f.start_time for f in flows),
        max(f.finish_time for f in flows),
        cfg.rate_bps,
        label,
    )
    return problems


def result_digest(result) -> str:
    """Content digest of an incast result's flows and series."""
    h = hashlib.sha256()
    for f in sorted(result.flows, key=lambda f: f.flow_id):
        h.update(repr((f.flow_id, f.src, f.dst, f.size, f.start_time, f.finish_time)).encode())
    for arr in (result.jain_times_ns, result.jain_values, result.queue_times_ns, result.queue_values_bytes):
        h.update(arr.tobytes())
    h.update(repr(result.events_executed).encode())
    return h.hexdigest()


class Incast16(Workload):
    """The paper's 16-1 staggered incast, figs. 8/9 pairs, packet backend."""

    def configs(self, seed: int, round_index: int) -> list:
        return incast_configs([v for pair in INCAST_PAIRS for v in pair], seed)

    def run(self, cfgs, tracer) -> Outcome:
        from repro.experiments.runner import run_incast

        return simulate_each([(run_incast, cfg) for cfg in cfgs], tracer)

    def check(self, cfgs, out: Outcome) -> List[List[str]]:
        problems = [
            check_incast(cfg, res, cfg.variant) if res is not None else []
            for cfg, res in zip(cfgs, out.results)
        ]
        spread = {
            cfg.variant: checks.finish_spread_ns([f.finish_time for f in res.flows])
            for cfg, res, p in zip(cfgs, out.results, problems)
            if res is not None and not p
        }
        for i, cfg in enumerate(cfgs):
            for default, fair in INCAST_PAIRS:
                if cfg.variant == fair and fair in spread and default in spread:
                    problems[i] += checks.check_spread_smaller(
                        spread[fair], spread[default], f"{fair} vs {default}"
                    )
        return problems


class HadoopBoth(Workload):
    """Scaled fat-tree, Hadoop CDF x0.1 at 50% load, HPCC-VAI-SF: the same
    traces on the packet backend, then on the flow-level (fluid) backend."""

    modules = ("repro.experiments.flowsim",)

    def configs(self, seed: int, round_index: int) -> list:
        return datacenter_configs(seed, round_index, ("packet", "flow"))

    def run(self, cfgs, tracer) -> Outcome:
        from repro.experiments.runner import run_datacenter

        return simulate_each([(run_datacenter, cfg) for cfg in cfgs], tracer)

    def check(self, cfgs, out: Outcome) -> List[List[str]]:
        problems = []
        for cfg, res in zip(cfgs, out.results):
            if res is None:
                problems.append([])
                continue
            label = f"trace seed {cfg.seed} ({cfg.backend})"
            p = []
            if res.n_offered == 0 or res.n_completed != res.n_offered or len(res.records) != res.n_offered:
                p.append(f"{label}: {res.n_completed}/{res.n_offered} flows completed")
            if cfg.backend == "packet":
                if res.drops != 0:
                    p.append(f"{label}: {res.drops} drops on the lossless fabric")
                # Shortest host pair path: host -> ToR -> host, two links.
                rtt = checks.base_rtt_ns(2, cfg.fattree.prop_delay_ns)
            else:
                rtt = 0.0
            p += checks.check_fct_bounds(
                (
                    (r.fct_ns, checks.fct_lower_bound_ns(r.size_bytes, cfg.fattree.host_rate_bps, rtt))
                    for r in res.records
                ),
                label,
            )
            problems.append(p)
        return problems


class CampaignFig1(Workload):
    """The six fig-1 incasts through run_campaign: cold, then warm replay."""

    modules = ("repro.experiments.parallel",)

    def __init__(self) -> None:
        self.jobs = max(1, min(2, len(os.sched_getaffinity(0))))
        self.tmp: Optional[str] = None

    def configs(self, seed: int, round_index: int) -> list:
        from repro.experiments.runner import clear_caches
        from repro.experiments.store import ResultStore, set_store

        scratch = ROOT / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="store-", dir=scratch)
        set_store(ResultStore(self.tmp))
        clear_caches()
        return incast_configs(FIG1_VARIANTS, seed)

    def run(self, cfgs, tracer) -> Outcome:
        from repro.experiments.parallel import run_campaign
        from repro.experiments.runner import clear_caches
        from repro.sim.network import RunBudget

        budget = RunBudget(wall_clock_s=WATCHDOG_S)
        out = Outcome()
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        kids_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            cold = run_campaign(cfgs, jobs=self.jobs, budget=budget, salvage=True)
        except Exception as exc:
            out.errors = [f"{type(exc).__name__}: {exc}"] * len(cfgs)
            out.results = [None] * len(cfgs)
            return out
        t1 = time.perf_counter()
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        kids_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        clear_caches()  # the warm pass must replay from the store
        try:
            warm = run_campaign(cfgs, jobs=self.jobs, budget=budget, salvage=True)
        except Exception as exc:
            warm = None
            out.extra["warm_error"] = f"{type(exc).__name__}: {exc}"
        t2 = time.perf_counter()

        def cpu(a, b) -> float:
            return (b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)

        out.results = [(cold, warm)] * len(cfgs)
        out.errors = [None] * len(cfgs)
        out.extra.update(
            {
                "campaign.executed": cold.stats.executed,
                "campaign.cached": warm.stats.cached if warm is not None else 0,
                "campaign.children_cpu_s": cpu(kids_0, kids_1),
                "campaign.parent_cpu_s": cpu(self_0, self_1),
                "campaign.worker_idle_s": (t1 - t0) * self.jobs - cpu(kids_0, kids_1),
                "store.warm_replay_s": t2 - t1,
            }
        )
        return out

    def close(self) -> None:
        from repro.experiments.store import set_store

        set_store(None)
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def check(self, cfgs, out: Outcome) -> List[List[str]]:
        if out.results[0] is None:
            return [[] for _ in cfgs]
        cold, warm = out.results[0]
        out.extra["store.bytes"] = sum(
            p.stat().st_size for p in Path(self.tmp).rglob("*") if p.is_file()
        )
        failed_keys = {key for key, _ in cold.failures}
        statuses = getattr(cold, "statuses", {}) or {}
        problems = []
        for cfg in cfgs:
            key = cfg.cache_key()
            label = f"campaign {cfg.variant}"
            if key in failed_keys or statuses.get(key, "ok") not in ("ok", "retried"):
                problems.append([f"{label}: failed in the cold pass"])
                continue
            res = cold.results.get(key)
            if res is None:
                problems.append([f"{label}: no cold result"])
                continue
            p = check_incast(cfg, res, label)
            if warm is None:
                p.append(f"{label}: warm pass raised {out.extra.get('warm_error')}")
            elif key not in warm.results or result_digest(warm.results[key]) != result_digest(res):
                p.append(f"{label}: warm replay differs from the cold result")
            problems.append(p)
        if cold.stats.executed != len(cfgs) or getattr(cold.stats, "quarantined", 0):
            problems[0].append(
                f"cold pass: {cold.stats.executed} simulated, "
                f"{getattr(cold.stats, 'quarantined', 0)} quarantined (want {len(cfgs)}, 0)"
            )
        if warm is not None and (warm.stats.cached != len(cfgs) or warm.stats.executed != 0):
            problems[0].append(
                f"warm pass: {warm.stats.cached} cached, {warm.stats.executed} simulated "
                f"(want {len(cfgs)}, 0)"
            )
        return problems


class IncastFigs(Workload):
    """The paper's 16-1 incast figures: the figs. 8/9 pairs one after another
    in this process, then the six fig-1 baselines through run_campaign."""

    modules = CampaignFig1.modules

    def __init__(self) -> None:
        self.parts = (Incast16(), CampaignFig1())
        self.sizes: List[int] = []
        self.outcomes: List[Outcome] = []

    def split(self, items: list) -> List[list]:
        """``items`` (one per config) cut into the parts' shares."""
        out, start = [], 0
        for n in self.sizes:
            out.append(items[start : start + n])
            start += n
        return out

    def configs(self, seed: int, round_index: int) -> list:
        per_part = [part.configs(seed, round_index) for part in self.parts]
        self.sizes = [len(c) for c in per_part]
        return [cfg for c in per_part for cfg in c]

    def run(self, cfgs, tracer) -> Outcome:
        self.outcomes = [part.run(c, tracer) for part, c in zip(self.parts, self.split(cfgs))]
        whole = Outcome()
        for o in self.outcomes:
            whole.results += o.results
            whole.errors += o.errors
            whole.extra.update(o.extra)
        return whole

    def check(self, cfgs, out: Outcome) -> List[List[str]]:
        problems: List[List[str]] = []
        for part, c, o in zip(self.parts, self.split(cfgs), self.outcomes):
            problems += part.check(c, o)
            out.extra.update(o.extra)  # the campaign's check measures store.bytes
        return problems

    def close(self) -> None:
        for part in self.parts:
            part.close()


WORKLOADS = {
    "incast_figs": IncastFigs,
    "hadoop_both": HadoopBoth,
}


# ---------------------------------------------------------------------------
# Isolation and per-layer read-out
# ---------------------------------------------------------------------------


def assert_isolated(traced: bool, *, cold: bool) -> None:
    """Fail the round unless it is uninstrumented (and, if ``cold``, uncached)."""
    from repro.experiments import runner

    for module, name in OFF_GLOBALS:
        if traced and (module, name) == ("repro.obs.registry", "STATS"):
            continue
        value = getattr(importlib.import_module(module), name, None)
        if value is not None:
            raise RuntimeError(f"{module}.{name} is set during the timed run")
    for cache in ("_INCAST_CACHE", "_DC_CACHE") if cold else ():
        if len(getattr(runner, cache, ())) != 0:
            raise RuntimeError(f"runner.{cache} is not empty")


def layer_metrics(tracer: tracing.Tracer, reg, out: Outcome, cfgs, import_s: float) -> Dict[str, float]:
    """The traced round's per-layer figures (0 where a layer did no work)."""
    counters = reg.snapshot()["counters"]
    gauges = reg.snapshot()["gauges"]
    simulate_s = tracer.category_s("simulate")
    # The packet engine's own share: hadoop_both also runs fluid simulations.
    packet_s = sum(
        end - start
        for _, _, _, name, _, start, end in tracer.spans
        if name.endswith("run_until_flows_complete")
    )
    events = counters.get("engine.events_executed", 0)
    m: Dict[str, float] = {
        "import.s": import_s,
        "build.s": tracer.category_s("build"),
        "simulate.s": simulate_s,
        "collect.s": tracer.category_s("collect"),
    }
    for name in tracing.LAYER_NAMES:
        m[f"{name}.self_s"] = tracer.self_s[name]
    m["sampler.samples"] = tracer.samples
    m["engine.events"] = events
    m["engine.ns_per_event"] = packet_s * 1e9 / events if events else 0.0
    m["engine.events_scheduled"] = counters.get("engine.events_scheduled", 0)
    m["engine.events_cancelled"] = counters.get("engine.events_cancelled", 0)
    m["engine.heap_peak"] = gauges.get("engine.heap_peak", 0)
    for name in (
        "port.fused_deliveries",
        "port.unfused_deliveries",
        "pfc.pauses_applied",
        "host.retransmitted_bytes",
        "vai.tokens_spent",
        "sf.decreases_granted",
    ):
        m[name] = counters.get(name, 0)
    m["fluid.events"] = sum(
        r.events_executed
        for cfg, r in zip(cfgs, out.results)
        if r is not None and getattr(cfg, "backend", "packet") == "flow"
    )
    calls = len(tracer.max_min_calls)
    m["max_min.calls"] = calls
    m["max_min.s"] = tracer.max_min_s
    m["max_min.flows_mean"] = tracer.max_min_flows / calls if calls else 0.0
    for name in (
        "campaign.executed",
        "campaign.cached",
        "campaign.children_cpu_s",
        "campaign.parent_cpu_s",
        "campaign.worker_idle_s",
        "store.bytes",
        "store.warm_replay_s",
    ):
        m[name] = out.extra.get(name, 0)
    m["store.put_s"] = tracer.store_put_s
    m["store.get_s"] = tracer.store_get_s
    return m


def write_trace(tracer: tracing.Tracer, workload: str) -> None:
    """Write the round's spans and sampler totals under ``.perfbench-out``."""
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    doc = {
        "spans": [
            dict(zip(("id", "parent", "run", "name", "category", "start_s", "end_s"), s))
            for s in tracer.spans
        ],
        "self_s": tracer.self_s,
        "samples": tracer.samples,
        "missing_hooks": tracer.missing,
    }
    (out_dir / f"trace-{workload}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = ap.parse_args(argv)
    traced = args.mode == "traced"

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    t_import = time.perf_counter()
    from repro.experiments import runner, store

    for module in workload.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t_import
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported {repro.__file__}, not the checkout's src/repro")
    from repro.sim.network import RunBudget

    runner.clear_caches()
    if store.get_store() is not None:
        raise RuntimeError("a default result store is installed")
    runner.set_default_budget(RunBudget(wall_clock_s=WATCHDOG_S))
    try:
        cfgs = workload.configs(args.seed, args.round)
        tracer = reg = None
        if traced:
            from repro.obs import registry

            reg = registry.enable()
            tracer = tracing.Tracer(BENCH_FILES)
            tracer.install()
        assert_isolated(traced, cold=True)
        t_first = time.monotonic()
        out = workload.run(cfgs, tracer)
        t_end = time.monotonic()
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        if tracer is not None:
            tracer.uninstall()
        assert_isolated(traced, cold=False)
        problems = workload.check(cfgs, out)
    finally:
        workload.close()

    if tracer is not None:
        # Run ids count the round's simulations from 1, in call order.
        for i, (run_id, capacities, links, caps, rates) in enumerate(tracer.max_min_calls):
            bad = checks.check_max_min(capacities, links, caps, rates, f"max_min call {i}")
            if bad and not problems[run_id - 1]:
                problems[run_id - 1] += bad
    failed = wrong = 0
    messages: List[str] = []
    for err, p in zip(out.errors, problems):
        if err is not None:
            failed += 1
            messages.append(err)
        elif p:
            failed += 1
            wrong += 1
            messages.extend(p)
    report: Dict[str, Any] = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "peak_rss_mb": usage / 1024.0,
        "attempted": len(out.errors),
        "failed": failed,
        "wrong": wrong,
        "problems": messages,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, reg, out, cfgs, import_s)
        report["missing_hooks"] = tracer.missing
        write_trace(tracer, args.workload)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
