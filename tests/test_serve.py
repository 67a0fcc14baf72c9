"""Multi-tenant likelihood serving: admission, fairness, pooling, chaos."""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SessionConfig
from repro.core import TreeLikelihood
from repro.core.api import beagle_get_last_error_message
from repro.model import HKY85, SiteModel
from repro.resil import FaultEvent, FaultPlan, RetryPolicy
from repro.seq import synthetic_pattern_set
from repro.serve import DeficitRoundRobin, LikelihoodServer
from repro.tree import yule_tree
from repro.util.errors import AdmissionError, DeviceLostError

CFG = SessionConfig(backend="cpu-serial", deferred=True)


@pytest.fixture(scope="module")
def workload():
    """One shared alignment, two tenant trees over it (same pool key)."""
    model = HKY85(kappa=2.0)
    site_model = SiteModel.gamma(0.5, 4)
    data = synthetic_pattern_set(8, 150, 4, rng=21)
    trees = [yule_tree(8, rng=300 + i) for i in range(2)]
    return model, site_model, data, trees


def _baseline(tree, data, model, site_model, config=CFG):
    kwargs = config.replace(
        deferred=False, fault_plan=None, retry_policy=None
    ).likelihood_kwargs()
    with TreeLikelihood(tree, data, model, site_model, **kwargs) as tl:
        return tl.log_likelihood()


# -- scheduler unit behaviour ---------------------------------------------


def test_drr_weighted_shares():
    drr = DeficitRoundRobin()
    drr.register("heavy", weight=2.0, quota=100)
    drr.register("light", weight=1.0, quota=100)
    for i in range(60):
        drr.enqueue("heavy", f"h{i}")
        drr.enqueue("light", f"l{i}")
    grants = {"heavy": 0, "light": 0}
    while drr.queued() and grants["light"] < 20:
        for name, _item in drr.select(6):
            grants[name] += 1
    assert grants["heavy"] == pytest.approx(2 * grants["light"], rel=0.1)


def test_drr_idle_tenant_costs_nothing():
    drr = DeficitRoundRobin()
    drr.register("busy")
    drr.register("idle")
    for i in range(4):
        drr.enqueue("busy", i)
    picked = []
    while drr.queued():
        picked.extend(drr.select(2))
    assert [name for name, _ in picked] == ["busy"] * 4
    # The idle tenant accumulated no credit while inactive.
    assert drr.tenant("idle").deficit == 0.0


def test_drr_registration_and_quota_errors():
    drr = DeficitRoundRobin()
    drr.register("a", quota=1)
    with pytest.raises(ValueError, match="already registered"):
        drr.register("a")
    with pytest.raises(KeyError, match="unknown tenant"):
        drr.enqueue("ghost", 1)
    drr.enqueue("a", 1)
    with pytest.raises(OverflowError, match="full"):
        drr.enqueue("a", 2)
    # requeue_front bypasses the quota (already-admitted work) and
    # keeps the deferred item ahead of later arrivals.
    drr.requeue_front("a", 0)
    picked = []
    while drr.queued():
        picked.extend(item for _, item in drr.select(10))
    assert picked == [0, 1]


# -- admission control ----------------------------------------------------


def test_queue_overflow_rejects_deterministically(workload):
    """Occupancy on a stopped dispatcher is a pure function of submits."""
    model, site_model, data, trees = workload
    server = LikelihoodServer(CFG, max_queue=3, start=False)
    client = server.register("greedy", quota=10)
    accepted, rejected = 0, 0
    for _ in range(8):
        try:
            client.submit(data, trees[0], model, site_model)
            accepted += 1
        except AdmissionError as exc:
            rejected += 1
            assert "queue full" in str(exc)
    assert (accepted, rejected) == (3, 5)
    # Rejects land on the C-style error surface too.
    message = beagle_get_last_error_message()
    assert "serve.submit[greedy]" in message
    assert "queue full" in message
    assert server.metrics.counter("serve.admission.rejects").value == 5
    server.shutdown(drain=False)


def test_tenant_quota_rejects_before_global_bound(workload):
    model, site_model, data, trees = workload
    server = LikelihoodServer(CFG, max_queue=10, start=False)
    client = server.register("small", quota=2)
    client.submit(data, trees[0], model, site_model)
    client.submit(data, trees[0], model, site_model)
    with pytest.raises(AdmissionError, match="quota exceeded"):
        client.submit(data, trees[0], model, site_model)
    assert "quota exceeded" in beagle_get_last_error_message()
    server.shutdown(drain=False)


def test_unknown_tenant_and_duplicate_registration(workload):
    model, site_model, data, trees = workload
    with LikelihoodServer(CFG, start=False) as server:
        server.register("a")
        with pytest.raises(ValueError, match="already registered"):
            server.register("a")
        with pytest.raises(KeyError, match="unknown tenant"):
            server.submit("ghost", data, trees[0], model, site_model)


def test_shutdown_fails_queued_tickets(workload):
    model, site_model, data, trees = workload
    server = LikelihoodServer(CFG, start=False)
    client = server.register("t")
    ticket = client.submit(data, trees[0], model, site_model)
    server.shutdown(drain=False)
    with pytest.raises(AdmissionError, match="shut down"):
        ticket.result(timeout=5)
    with pytest.raises(RuntimeError, match="not accepting"):
        client.submit(data, trees[0], model, site_model)


# -- end-to-end serving ---------------------------------------------------


def test_two_tenants_share_one_warm_pool_bit_identically(workload):
    model, site_model, data, trees = workload
    with LikelihoodServer(CFG, pool_per_key=2) as server:
        clients = [server.register(f"t{i}") for i in range(2)]
        tickets = [
            clients[i].submit(data, trees[i], model, site_model)
            for _ in range(3)
            for i in range(2)
        ]
        values = [t.result(timeout=60) for t in tickets]
        assert len(server.pool_sizes()) == 1  # one shared key
        hits = server.metrics.counter("serve.pool.hit").value
        rebinds = server.metrics.counter("serve.pool.rebind").value
        builds = server.metrics.counter("serve.pool.miss").value
        stats = server.tenant_stats()
    assert builds <= 2  # never more instances than per_key
    assert hits + rebinds > 0  # warm reuse happened
    expected = [_baseline(t, data, model, site_model) for t in trees]
    assert values == expected * 3
    for name in ("t0", "t1"):
        assert stats[name]["completed"] == 3
        assert stats[name]["p99_s"] >= stats[name]["p50_s"] >= 0


def test_update_requests_apply_branch_edits(workload):
    model, site_model, data, trees = workload
    tree = trees[0].copy()
    node = tree.root.children[0]
    with LikelihoodServer(CFG) as server:
        client = server.register("editor")
        before = client.submit(data, tree, model, site_model).result(60)
        edited = client.submit(
            data, tree, model, site_model,
            branch_edits={node.index: node.branch_length * 3.0},
        ).result(60)
    assert edited != before
    assert node.branch_length == pytest.approx(
        trees[0].root.children[0].branch_length * 3.0
    )
    assert edited == _baseline(tree, data, model, site_model)


def test_batches_group_requests_and_record_occupancy(workload):
    model, site_model, data, trees = workload
    server = LikelihoodServer(CFG, batch_limit=4, start=False)
    clients = [server.register(f"t{i}") for i in range(2)]
    tickets = [
        clients[i].submit(data, trees[i], model, site_model)
        for _ in range(2)
        for i in range(2)
    ]
    server.start()  # queued requests dispatch together in one round
    for ticket in tickets:
        ticket.result(timeout=60)
    occupancy = server.metrics.histogram("serve.batch.occupancy")
    assert occupancy.count >= 1
    # percentile(1.0) clamps to the observed maximum: cross-tenant
    # requests shared at least one batch.
    assert occupancy.percentile(1.0) >= 2
    server.shutdown()


def test_device_loss_failover_is_bit_identical(workload):
    model, site_model, data, trees = workload
    plan = FaultPlan([FaultEvent("device-loss", "serve-0", at=2)], seed=5)
    chaos = CFG.replace(
        retry_policy=RetryPolicy(max_attempts=3, failover=True, seed=5),
        fault_plan=plan, fault_level="wrapper",
    )
    with LikelihoodServer(chaos, pool_per_key=1) as server:
        clients = [server.register(f"t{i}") for i in range(2)]
        tickets = [
            clients[i].submit(data, trees[i], model, site_model)
            for _ in range(3)
            for i in range(2)
        ]
        values = [t.result(timeout=60) for t in tickets]
        failovers = server.metrics.counter("serve.failover.events").value
        retired = server.metrics.counter("serve.pool.retired").value
    assert failovers >= 1 and retired >= 1
    assert plan.fired()  # the scripted fault actually triggered
    expected = [_baseline(t, data, model, site_model) for t in trees]
    assert values == expected * 3  # recovery is invisible in the bits


def test_device_loss_without_failover_propagates(workload):
    """``RetryPolicy(failover=False)`` makes a lost instance's request
    fail, as in the executor and the cluster: the instance is retired,
    no replacement is built for the request."""
    model, site_model, data, trees = workload
    plan = FaultPlan([FaultEvent("device-loss", "serve-0", at=2)], seed=5)
    strict = CFG.replace(
        retry_policy=RetryPolicy(max_attempts=3, failover=False, seed=5),
        fault_plan=plan, fault_level="wrapper",
    )
    with LikelihoodServer(strict, pool_per_key=1) as server:
        client = server.register("t0")
        outcomes = []
        for _ in range(3):
            ticket = client.submit(data, trees[0], model, site_model)
            try:
                outcomes.append(ticket.result(timeout=60))
            except DeviceLostError as exc:
                outcomes.append(exc)
        failovers = server.metrics.counter("serve.failover.events").value
        retired = server.metrics.counter("serve.pool.retired").value
    lost = [o for o in outcomes if isinstance(o, DeviceLostError)]
    assert len(lost) == 1
    assert retired == 1
    assert failovers == 0
    expected = _baseline(trees[0], data, model, site_model)
    assert [o for o in outcomes if not isinstance(o, Exception)] == (
        [expected] * 2
    )


def test_ticket_is_awaitable(workload):
    model, site_model, data, trees = workload

    async def drive(server):
        clients = [server.register(f"t{i}") for i in range(2)]
        return await asyncio.gather(*[
            clients[i].likelihood(data, trees[i], model, site_model)
            for i in range(2)
        ])

    with LikelihoodServer(CFG) as server:
        values = asyncio.run(drive(server))
    expected = [_baseline(t, data, model, site_model) for t in trees]
    assert values == expected


def test_multi_device_config_is_rejected():
    cfg = SessionConfig(devices={"dev0": "cuda", "dev1": "cuda"})
    with pytest.raises(ValueError, match="single-device"):
        LikelihoodServer(cfg, start=False)
