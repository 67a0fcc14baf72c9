"""``serve``: multi-tenant serving, one load thread in an open loop.

Weighted tenants share one :class:`PatternSet`; each has its own tree.
A single asyncio load thread sends a fixed, seeded schedule of requests
at a fixed offered rate, below this workload's capacity, through a
``LikelihoodServer`` on cpu-sse (deferred), whatever the server's state:

* ``full``  -- evaluate the tenant's tree as it stands;
* ``edit``  -- a request carrying one branch edit to the tenant's tree;
* ``burst`` -- a tenant scores ``BURST`` candidate edits at once, each a
  request on its own copy of the tree; the op ends with the last reply.

A tenant's requests edit its tree in order, so a request waits for the
tenant's previous one before it is submitted; latency is timed from
each request's due time, so that wait counts.  Every reply must equal
the tenant's serial baseline for the same tree state, computed before
the timed window.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import numpy as np

from common import (
    SETUP_REPS, OpLog, Replay, alignment_with_patterns, clock, median,
    end_window, repeat_set_up, scaled_tree, start_window,
)

KINDS = ("full", "edit", "burst")
PATTERN = ("full", "edit", "burst")
BURST = 2
#: 4 tenants x 78 branches overflow the 256-entry matrix cache, so with
#: requests cycling through tenants every request misses it: a cache
#: near capacity would hit or miss depending on the seed.
TAXA, PATTERNS = 40, 1200
WEIGHTS = {"t0": 4.0, "t1": 2.0, "t2": 1.0, "t3": 1.0}
#: Which tenant sends each op: a fixed cycle in proportion to the
#: weights, so every seed offers the same mix (only values are seeded).
TENANT_CYCLE = ("t0", "t1", "t0", "t2", "t0", "t1", "t0", "t3")
#: Closed-loop capacity of this workload and the closed-loop p90 latency
#: of its slowest op kind (burst), measured with ``python3
#: perfbench/run.py --workload serve --seed 1 --seconds 1 --capacity`` on
#: a 2-vCPU x86-64 host (Python 3.11, NumPy 2.4).
CAPACITY_OPS_PER_S = 36.0
CLOSED_P90_S = 0.056
#: Offered rate as a share of capacity: low enough that on a host running
#: 1.7x slower (seen for minutes at a time) the server stays about half
#: busy, so queueing does not turn a slow host into a backlog.
LOAD_SHARE = 0.3
#: Offered rate in ops per second (a burst is one op of BURST requests).
RATE = LOAD_SHARE * CAPACITY_OPS_PER_S
#: A reply later than this after its due time counts as failed: ten
#: times the slowest kind's closed-loop p90.
LATENCY_LIMIT_S = 10 * CLOSED_P90_S
POOL_PER_KEY = 1
#: Replies allowed to match their serial baseline only within
#: ``REPLAY_RTOL`` (an open defect, see ``common.REPLAY_RTOL``): at most
#: this share, more than twice the largest share measured (0.08 over
#: seeds 11-25 and 101-510).
MAX_INEXACT_FRAC = 0.2


def _inputs(seed: int):
    from repro.model import HKY85, SiteModel
    rng = np.random.default_rng([seed, 21])
    model, site = HKY85(kappa=2.0 + rng.random()), SiteModel.gamma(0.5, 4)
    trees = {t: scaled_tree(TAXA, int(rng.integers(2**31)), topology=k)
             for k, t in enumerate(WEIGHTS)}
    aln = alignment_with_patterns(trees["t0"], model, PATTERNS, site, rng)
    return model, site, trees, aln, rng


def _schedule(rng, n_ops: int, trees) -> List[dict]:
    """The seeded request schedule: (due, tenant, kind, edits)."""
    n_nodes = trees["t0"].n_nodes
    root = trees["t0"].root.index
    branches = [i for i in range(n_nodes) if i != root]

    def edit():
        return {int(rng.choice(branches)): float(rng.uniform(0.005, 0.08))}

    out = []
    for i in range(n_ops):
        kind = PATTERN[i % len(PATTERN)]
        tenant = TENANT_CYCLE[i % len(TENANT_CYCLE)]
        edits = []
        if kind == "edit":
            edits = [edit()]
        elif kind == "burst":
            edits = [edit() for _ in range(BURST)]
        out.append({"due": i / RATE, "tenant": tenant, "kind": kind,
                    "edits": edits})
    return out


def _expected(schedule, trees, data, model, site, config) -> None:
    """Serial baseline value(s) for every scheduled op, in order."""
    from repro.core.highlevel import TreeLikelihood

    kwargs = config.likelihood_kwargs()
    baselines = {t: TreeLikelihood(tree.copy(), data, model, site, **kwargs)
                 for t, tree in trees.items()}
    for op in schedule:
        tl = baselines[op["tenant"]]
        if op["kind"] == "full":
            op["expected"] = [tl.log_likelihood()]
        elif op["kind"] == "edit":
            _apply(tl.tree, op["edits"][0])
            op["expected"] = [tl.log_likelihood()]
        else:
            values = []
            for edits in op["edits"]:
                saved = {i: tl.tree.node_by_index(i).branch_length
                         for i in edits}
                _apply(tl.tree, edits)
                values.append(tl.log_likelihood())
                _apply(tl.tree, saved)
            op["expected"] = values
    for tl in baselines.values():
        tl.finalize()


def _apply(tree, edits) -> None:
    for index, length in edits.items():
        tree.node_by_index(index).branch_length = length


def _server(config):
    from repro.serve import LikelihoodServer

    # One warm instance (pool_per_key <= nproc): requests are served in
    # order, so which ones hit and which rebind is the same every run.
    server = LikelihoodServer(config, pool_per_key=POOL_PER_KEY,
                              max_queue=64, batch_limit=8)
    for tenant, weight in WEIGHTS.items():
        server.register(tenant, weight=weight, quota=8)
    return server


class _Load:
    """The open-loop load generator's state for one timed window."""

    def __init__(self, server, trees, data, model, site, traced,
                 host=None) -> None:
        self.server = server
        self.host = host
        self.in_flight = 0
        self.trees = trees
        self.data = data
        self.model = model
        self.site = site
        self.traced = traced
        self.locks = {t: asyncio.Lock() for t in trees}
        self.late: List[float] = []
        self.submit_s: List[float] = []
        self.depth_max = 0
        self.rejects = 0

    def _submit(self, tenant, tree, edits):
        if self.traced:
            self.depth_max = max(self.depth_max, self.server.queue_depth())
        t0 = clock()
        ticket = self.server.submit(tenant, self.data, tree, self.model,
                                    self.site, branch_edits=edits)
        self.submit_s.append(clock() - t0)
        return ticket

    async def send(self, op: dict):
        """Submit one op's request(s) and wait for the replies."""
        tenant, tree = op["tenant"], self.trees[op["tenant"]]
        if op["kind"] == "burst":
            tickets = []
            for edits in op["edits"]:
                candidate = tree.copy()
                _apply(candidate, edits)
                tickets.append(self._submit(tenant, candidate, None))
            return [await t for t in tickets]
        edits = op["edits"][0] if op["edits"] else None
        return [await self._submit(tenant, tree, edits)]

    async def op(self, start: float, op: dict):
        """Send one scheduled op; returns (latency s, values or None,
        clock() at its end)."""
        from repro.util.errors import AdmissionError

        due = start + op["due"]
        await asyncio.sleep(max(0.0, due - clock()))
        self.in_flight += 1
        try:
            async with self.locks[op["tenant"]]:
                self.late.append(clock() - due)
                values = await self.send(op)
        except AdmissionError:
            self.rejects += 1
            values = None
        finally:
            self.in_flight -= 1
        end = clock()
        return end - due, values, end

    async def sample_host(self, start: float, n_ops: int):
        """Sample the host reference halfway between due times, the way a
        request runs: handed from the load thread to a worker thread and
        awaited.  Only while no request is in flight, so it does not
        compete with the server's worker, and only if the sample should
        end before the next request is due, so it never delays one."""
        loop = asyncio.get_running_loop()
        last = 0.0
        with ThreadPoolExecutor(1, thread_name_prefix="hostref") as worker:
            for i in range(n_ops - 1):
                await asyncio.sleep(
                    max(0.0, start + (i + 0.5) / RATE - clock()))
                next_due = start + (i + 1) / RATE
                if self.in_flight == 0 and clock() + 2 * last < next_due:
                    t0 = clock()
                    await loop.run_in_executor(worker, self.host.check)
                    end = clock()
                    last = end - t0
                    self.host.record(last, end)

    async def closed_loop(self, schedule):
        """Send the ops back to back; returns (ops/s, latency s per kind)."""
        latency: Dict[str, List[float]] = {k: [] for k in KINDS}
        start = clock()
        for op in schedule:
            t0 = clock()
            await self.send(op)
            latency[op["kind"]].append(clock() - t0)
        return len(schedule) / (clock() - start), latency

    async def run(self, schedule):
        start = clock() + 0.05
        results = await asyncio.gather(
            self.sample_host(start, len(schedule)),
            *(self.op(start, op) for op in schedule))
        return results[1:], clock() - start


def run(seed: int, seconds: float, spans, traced: bool, host,
        expect_wrong=False):
    from repro.config import SessionConfig
    from repro.core.highlevel import TreeLikelihood
    from repro.seq.patterns import compress_patterns

    model, site, trees, aln, rng = _inputs(seed)
    config = SessionConfig(backend="cpu-sse", deferred=True)
    n_ops = _ops(seconds)
    schedule = _schedule(rng, n_ops, trees)
    data = compress_patterns(aln)
    _expected(schedule, trees, data, model, site, config)
    first = {}
    for tenant, tree in trees.items():
        with TreeLikelihood(tree, data, model, site,
                            **config.likelihood_kwargs()) as tl:
            first[tenant] = tl.log_likelihood()

    # -- set-up: compress + server + one verified reply per tenant --------
    # Set-up sends copies: the timed requests edit the tenants' trees.
    pristine = {t: tree.copy() for t, tree in trees.items()}

    def set_up():
        data = compress_patterns(aln)
        server = _server(config)
        tickets = {t: server.submit(t, data, pristine[t], model, site)
                   for t in trees}
        for tenant, ticket in tickets.items():
            if not Replay().same([ticket.result()], [first[tenant]]):
                raise RuntimeError("serve set-up: first reply is wrong")
        return server, data

    def close(built):
        built[0].shutdown()

    setup_times: List[tuple] = []
    server, data = repeat_set_up(set_up, close, SETUP_REPS // 2,
                                 setup_times, host)

    # -- timed open loop ---------------------------------------------------
    load = _Load(server, trees, data, model, site, traced, host)
    counters0 = _pool_counters(server)
    start_window()
    results, window = asyncio.run(load.run(schedule))
    rss_mb, faults = end_window()
    close(repeat_set_up(set_up, close, SETUP_REPS - SETUP_REPS // 2,
                        setup_times, host))

    # Replies may replay inexactly (REPLAY_RTOL): digest 11 digits.
    ops = OpLog(KINDS, digits=11)
    replay = Replay(MAX_INEXACT_FRAC)
    mismatches = 0
    for i, (op, (latency, values, end)) in enumerate(zip(schedule,
                                                          results)):
        expected = list(op["expected"])
        if expect_wrong and i == 0:
            expected[0] += 1.0
        correct = values is None or replay.same(values, expected)
        mismatches += not correct
        ok = values is not None and correct and latency <= LATENCY_LIMIT_S
        ops.record(op["kind"], latency, ok, values or [float("nan")], end)
    ops.window_s = window
    if not replay.within_cap():
        mismatches += 1
        ops.failed += 1

    layer: Dict[str, float] = {"check.inexact_frac": replay.inexact_frac}
    if traced:
        layer.update(_serve_layers(server, load, counters0))
        tl = TreeLikelihood(trees["t0"].copy(), data, model, site,
                            **config.likelihood_kwargs())
        times = []
        for tenant in ("t1", "t0", "t1", "t0", "t1"):
            t0 = clock()
            tl.rebind(data, trees[tenant].copy())
            times.append(clock() - t0)
        tl.finalize()
        layer["tips.rebind_ms"] = median(times) * 1e3
    server.shutdown()
    return {"ops": ops, "setup": setup_times, "layer": layer,
            "mismatches": mismatches, "peak_rss_mb": rss_mb,
            "page_faults": faults}


def capacity(seed: int, n_ops: int = 200):
    """Closed-loop capacity of this workload: the same seeded ops, each
    sent as soon as the previous one's replies are back.

    Returns (ops per second, latencies in seconds per op kind).
    """
    from repro.config import SessionConfig
    from repro.seq.patterns import compress_patterns

    model, site, trees, aln, rng = _inputs(seed)
    schedule = _schedule(rng, n_ops, trees)
    server = _server(SessionConfig(backend="cpu-sse", deferred=True))
    load = _Load(server, trees, compress_patterns(aln), model, site, False)
    asyncio.run(load.closed_loop(schedule[:2 * len(PATTERN)]))
    try:
        return asyncio.run(load.closed_loop(schedule))
    finally:
        server.shutdown()


def _pool_counters(server) -> Dict[str, float]:
    m = server.metrics
    return {name: m.counter(f"serve.pool.{name}").value
            for name in ("hit", "rebind", "miss")}


def _serve_layers(server, load, counters0) -> Dict[str, float]:
    after = _pool_counters(server)
    delta = {k: after[k] - counters0[k] for k in after}
    acquired = max(1.0, sum(delta.values()))
    stats = server.tenant_stats()
    occupancy = server.metrics.histogram("serve.batch.occupancy")
    return {
        "serve.submit_ms": median(load.submit_s) * 1e3,
        "serve.server_ms": median(s["p50_s"] for s in stats.values()) * 1e3,
        "serve.late_ms": median(load.late) * 1e3,
        "serve.queue_depth_max": float(load.depth_max),
        "serve.pool_hit_frac": delta["hit"] / acquired,
        "serve.rebind_frac": delta["rebind"] / acquired,
        "serve.builds": after["miss"],
        "serve.batch_occupancy": occupancy.mean,
        "serve.rejects": float(load.rejects),
    }


def loop_description() -> str:
    return (f"open at {RATE:g} ops/s, {LOAD_SHARE:.0%} of the closed-loop "
            f"capacity of {CAPACITY_OPS_PER_S:g} ops/s; latency limit "
            f"{LATENCY_LIMIT_S:g} s from the due time")


def _ops(seconds: float) -> int:
    return max(len(PATTERN), int(round(seconds * RATE)))


def expected_counts(seconds: float) -> Dict[str, int]:
    n = _ops(seconds)
    share = {k: PATTERN.count(k) / len(PATTERN) for k in KINDS}
    return {"a": int(n * share["full"]), "b": int(n * share["edit"]),
            "c": int(n * share["burst"])}
