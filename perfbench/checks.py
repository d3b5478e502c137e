"""Independent output checkers for the benchmark, with self-tests.

Every checker derives its expectation from link specifications or from the
definition of max-min fairness, never from the simulator's own helpers or a
recorded copy of earlier output.  Each returns a list of human-readable
violations (empty = pass).  :func:`selftest` feeds every checker one valid
and one deliberately wrong input and requires the wrong one to be rejected,
so no check is unable to fail.

Run ``python3 perfbench/checks.py`` to execute the self-tests alone.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Relative slack for floating-point comparisons of rates and times.
REL_TOL = 1e-9


def fct_lower_bound_ns(size_bytes: float, line_rate_bps: float, base_rtt_ns: float) -> float:
    """The fastest a flow can complete: payload at line rate plus one RTT.

    ``base_rtt_ns`` is the round-trip propagation of the path (0 on the
    fluid backend, which models no per-hop latency floor).
    """
    return size_bytes * 8.0 / line_rate_bps * 1e9 + base_rtt_ns


def base_rtt_ns(links: int, prop_delay_ns: float) -> float:
    """Round-trip propagation over ``links`` links of equal delay."""
    return 2.0 * links * prop_delay_ns


def check_fct_bounds(flows: Iterable[Tuple[float, float]], label: str) -> List[str]:
    """Each ``(fct_ns, bound_ns)`` must satisfy ``fct >= bound``."""
    bad = []
    for i, (fct, bound) in enumerate(flows):
        if not fct >= bound * (1.0 - REL_TOL):
            bad.append(f"{label}: flow #{i} fct {fct:.1f} ns < lower bound {bound:.1f} ns")
    return bad[:5]


def check_bottleneck_rate(
    total_bytes: float,
    first_start_ns: float,
    last_finish_ns: float,
    capacity_bps: float,
    label: str,
) -> List[str]:
    """Bytes through one bottleneck cannot outrun its capacity."""
    span = last_finish_ns - first_start_ns
    if span <= 0:
        return [f"{label}: empty delivery interval {span} ns"]
    rate = total_bytes * 8.0 / span * 1e9
    if rate > capacity_bps * (1.0 + REL_TOL):
        return [f"{label}: delivered {rate / 1e9:.3f} Gbps through a {capacity_bps / 1e9:.3f} Gbps bottleneck"]
    return []


def finish_spread_ns(finishes: Sequence[float]) -> float:
    """Last minus first finish time of a flow set."""
    return max(finishes) - min(finishes)


def check_spread_smaller(fair: float, default: float, label: str) -> List[str]:
    """The fairness variant must finish its flows closer together."""
    if not fair < default:
        return [f"{label}: finish spread {fair / 1e3:.1f} us not below default's {default / 1e3:.1f} us"]
    return []


def check_max_min(
    capacities: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    caps: Optional[Mapping[Hashable, float]],
    rates: Mapping[Hashable, float],
    label: str = "max-min",
) -> List[str]:
    """Feasibility and max-min optimality of an allocation.

    Feasible: every rate is non-negative, within its flow's cap, and no link
    carries more than its capacity.  Optimal (the bottleneck criterion):
    every flow is either at its cap or crosses a saturated link on which no
    other flow gets a higher rate.
    """
    bad: List[str] = []
    if set(rates) != set(flow_links):
        return [f"{label}: allocated flows {sorted(map(repr, rates))[:4]} != offered flows"]
    caps = caps or {}
    load: Dict[Hashable, float] = {link: 0.0 for link in capacities}
    top: Dict[Hashable, float] = {link: 0.0 for link in capacities}
    scale = max([1.0, *capacities.values(), *caps.values()])
    tol = REL_TOL * scale
    for fid, links in flow_links.items():
        r = rates[fid]
        if r < -tol:
            bad.append(f"{label}: flow {fid!r} has negative rate {r}")
        cap = caps.get(fid)
        if cap is not None and r > cap + tol:
            bad.append(f"{label}: flow {fid!r} rate {r} above its cap {cap}")
        for link in links:
            load[link] += r
            top[link] = max(top[link], r)
    saturated = set()
    for link, cap in capacities.items():
        if load[link] > cap + tol:
            bad.append(f"{label}: link {link!r} carries {load[link]} > capacity {cap}")
        if load[link] >= cap - tol:
            saturated.add(link)
    for fid, links in flow_links.items():
        r = rates[fid]
        cap = caps.get(fid)
        if cap is not None and r >= cap - tol:
            continue
        if not any(link in saturated and r >= top[link] - tol for link in links):
            bad.append(f"{label}: flow {fid!r} at {r} has no bottleneck link (not max-min)")
    return bad[:5]


def selftest() -> None:
    """Require every checker to accept a valid input and reject a wrong one."""

    def expect(ok: List[str], wrong: List[str], name: str) -> None:
        if ok:
            raise AssertionError(f"{name} rejected a valid input: {ok}")
        if not wrong:
            raise AssertionError(f"{name} accepted a deliberately wrong input")

    # 1 MB at 100 Gbps over a 2-link path with 1 us links: 80 us + 4 us.
    bound = fct_lower_bound_ns(1_000_000, 100e9, base_rtt_ns(2, 1000.0))
    assert abs(bound - 84_000.0) < 1e-6, bound
    expect(
        check_fct_bounds([(90_000.0, bound)], "fct"),
        check_fct_bounds([(90_000.0, bound), (83_000.0, bound)], "fct"),
        "check_fct_bounds",
    )
    # 16 MB in 1.4 ms is 91 Gbps; in 1.2 ms it would be 107 Gbps.
    expect(
        check_bottleneck_rate(16e6, 0.0, 1.4e6, 100e9, "bytes"),
        check_bottleneck_rate(16e6, 0.0, 1.2e6, 100e9, "bytes"),
        "check_bottleneck_rate",
    )
    expect(
        check_spread_smaller(300.0, 900.0, "spread"),
        check_spread_smaller(900.0, 900.0, "spread"),
        "check_spread_smaller",
    )
    # Two links of 10 and 4; flow a uses both, b only the first, c only the
    # second.  Max-min: a=c=2 (link 2 saturated), b=8 fills link 1.
    capacities = {"l1": 10.0, "l2": 4.0}
    flow_links = {"a": ("l1", "l2"), "b": ("l1",), "c": ("l2",)}
    good = {"a": 2.0, "b": 8.0, "c": 2.0}
    expect(
        check_max_min(capacities, flow_links, None, good),
        check_max_min(capacities, flow_links, None, {"a": 2.0, "b": 9.0, "c": 2.0}),
        "check_max_min (over capacity)",
    )
    expect(
        [],
        check_max_min(capacities, flow_links, None, {"a": 2.0, "b": 5.0, "c": 2.0}),
        "check_max_min (not max-min)",
    )
    # With b capped at 3, link 1 has slack but b is bottlenecked by its cap.
    expect(
        check_max_min(capacities, flow_links, {"b": 3.0}, {"a": 2.0, "b": 3.0, "c": 2.0}),
        check_max_min(capacities, flow_links, {"b": 3.0}, {"a": 2.0, "b": 4.0, "c": 2.0}),
        "check_max_min (caps)",
    )


if __name__ == "__main__":
    selftest()
    print("checks: all self-tests passed")
