"""Overload resilience: retries, admission control, SLO verdicts.

Covers the policy records (parsing, backoff determinism), the client
retry engine (exactly-once accounting, liveness against a dead server),
the server admission path (shedding, NAKs, connection caps), per-tenant
SLO verdicts and the ``slo_knee``, and the byte-determinism contract:
a report with retries and shedding on is byte-identical for any ``--jobs``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, run_cluster, run_cluster_once
from repro.cluster.policy import (DEFAULT_DEADLINE_US, RetryPolicy,
                                  ServerPolicy)
from repro.cluster.runner import slo_knee
from repro.providers.registry import ALL_PROVIDERS

# a config comfortably past the knee: fixed:100 caps one server at
# 10k rps while four clients offer 48k, so shedding and retries engage
OVERLOAD = ClusterConfig(
    nodes=6, clients=6, requests=8, window=2, service="fixed:100",
    retry="on", server_policy="depth=4,shed=deadline", tenants=3,
    deadline_us=400_000.0)

# the same cluster at a trivial load: every SLO holds
HEALTHY = ClusterConfig(
    nodes=6, clients=6, requests=8, window=2, service="fixed:20",
    retry="on", server_policy="depth=64,shed=tail", tenants=2,
    deadline_us=400_000.0)


# ---------------------------------------------------------------------------
# policy records

def test_retry_parse_off_variants():
    for spec in ("off", "none", "", "  off "):
        assert RetryPolicy.parse(spec) is None


def test_retry_parse_on_is_defaults():
    assert RetryPolicy.parse("on") == RetryPolicy()


def test_retry_parse_kv_spec():
    pol = RetryPolicy.parse("budget=5,base=100,cap=2000,jitter=0.25,"
                            "timeout=9000")
    assert pol == RetryPolicy(max_retries=5, base_us=100.0, cap_us=2000.0,
                              jitter=0.25, timeout_us=9000.0)


def test_retry_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown retry key"):
        RetryPolicy.parse("budget=3,frobs=1")


def test_retry_validates_fields():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_us=0.0)


def test_backoff_is_capped_exponential_and_deterministic():
    pol = RetryPolicy(base_us=100.0, cap_us=800.0, jitter=0.5)
    a = [pol.backoff_us(i, random.Random(7)) for i in range(8)]
    b = [pol.backoff_us(i, random.Random(7)) for i in range(8)]
    assert a == b  # same stream, same waits
    for i, wait in enumerate(a):
        ceiling = min(800.0, 100.0 * 2 ** i)
        assert 0.5 * ceiling <= wait <= 1.5 * ceiling


def test_backoff_without_jitter_is_exact():
    pol = RetryPolicy(base_us=100.0, cap_us=800.0, jitter=0.0)
    rng = random.Random(0)
    assert [pol.backoff_us(i, rng) for i in range(5)] == \
        [100.0, 200.0, 400.0, 800.0, 800.0]


def test_server_policy_parse():
    assert ServerPolicy.parse("none") is None
    pol = ServerPolicy.parse("depth=64,shed=deadline,conns=16")
    assert pol == ServerPolicy(queue_depth=64, shed_mode="deadline",
                               max_conns=16)
    with pytest.raises(ValueError, match="unknown shed mode"):
        ServerPolicy.parse("shed=sideways")
    with pytest.raises(ValueError, match="unknown server-policy key"):
        ServerPolicy.parse("depth=4,windows=9")


def test_deadline_default_is_single_source():
    from repro.cluster.server import ClusterServer
    from repro.cluster.workload import ClusterClient
    from repro.providers import Testbed

    assert ClusterConfig().deadline_us == DEFAULT_DEADLINE_US
    tb = Testbed("mvia")
    cli = ClusterClient(tb, tb.node_names[0], 0, tb.node_names[1],
                        n_requests=1)
    srv = ClusterServer(tb, tb.node_names[1], 1, 1)
    assert cli.deadline_us == srv.deadline_us == DEFAULT_DEADLINE_US


# ---------------------------------------------------------------------------
# slo_knee

def _pt(offered, ok):
    return {"offered_rps": offered, "slo_ok": ok}


def test_slo_knee_largest_passing_rate():
    pts = [_pt(2000.0, True), _pt(8000.0, True), _pt(32000.0, False)]
    assert slo_knee(pts) == {"slo_knee_rps": 8000.0}


def test_slo_knee_nothing_passes():
    assert slo_knee([_pt(2000.0, False)]) == {"slo_knee_rps": 0.0}
    assert slo_knee([]) == {"slo_knee_rps": 0.0}


# ---------------------------------------------------------------------------
# overload integration: shedding, NAKs, exactly-once accounting

@pytest.fixture(scope="module")
def overload_point():
    return run_cluster_once("mvia", OVERLOAD, 48_000.0)


def test_overload_sheds_and_naks(overload_point):
    pt = overload_point
    assert pt["violations"] == []
    assert pt["shed_queue"] + pt["shed_deadline"] > 0
    assert pt["naks_sent"] > 0
    assert pt["retried"] > 0


def test_every_request_resolves_exactly_once(overload_point):
    # the "counted once" regression: a request that dies is either
    # abandoned or deadline_exceeded, never both, and never lost
    pt = overload_point
    expected = OVERLOAD.clients * OVERLOAD.requests
    assert (pt["completed"] + pt["abandoned"]
            + pt["deadline_exceeded"] == expected)
    for ten in pt["tenants"]:
        assert (ten["completed"] + ten["abandoned"]
                + ten["deadline_exceeded"] == ten["expected"])


def test_tenant_slices_sum_to_point(overload_point):
    pt = overload_point
    assert len(pt["tenants"]) == OVERLOAD.tenants
    for key in ("completed", "retried", "abandoned", "deadline_exceeded"):
        assert sum(t[key] for t in pt["tenants"]) == pt[key]


def test_overloaded_point_fails_slo(overload_point):
    assert overload_point["slo_ok"] is False


def test_healthy_point_passes_slo():
    pt = run_cluster_once("mvia", HEALTHY, 2_000.0)
    assert pt["violations"] == []
    assert pt["slo_ok"] is True
    for ten in pt["tenants"]:
        assert ten["slo"]["ok"] is True
        assert ten["completed"] == ten["expected"]


def test_connection_cap_rejects_surplus_dials():
    cfg = replace(HEALTHY, server_policy="conns=4", tenants=1,
                  mode="closed", requests=4)
    pt = run_cluster_once("mvia", cfg, None)
    assert pt["violations"] == []
    assert pt["conns_rejected"] > 0
    # the two rejected clients give up their whole quota as failed;
    # the four admitted ones complete everything
    assert pt["completed"] == 4 * 4
    assert pt["failed"] == 2 * 4


def test_closed_loop_retry_completes():
    cfg = replace(HEALTHY, mode="closed", tenants=1)
    pt = run_cluster_once("mvia", cfg, None)
    assert pt["violations"] == []
    assert pt["completed"] == cfg.clients * cfg.requests


def test_retry_client_survives_dead_server():
    """Liveness: every request resolves by its deadline even when the
    server dies mid-run and stops answering entirely — a window wedged
    full of zombie attempts must not hang the client."""
    from repro.cluster.workload import ClusterClient
    from repro.providers import Testbed
    from repro.via import Descriptor
    from repro.via.constants import Reliability

    tb = Testbed("mvia")
    client_node, server_node = tb.node_names[0], tb.node_names[1]
    n, window, timeout = 6, 2, 2_000.0
    cli = ClusterClient(
        tb, client_node, 0, server_node, n_requests=n, window=window,
        interval_us=1.0, offsets=[i * 500.0 for i in range(n)],
        retry=RetryPolicy(max_retries=2, base_us=100.0, cap_us=400.0,
                          jitter=0.0, timeout_us=timeout),
        deadline_us=200_000.0)

    def mute_server():
        # accept the connection, post receives, never respond
        h = tb.open(server_node, "server")
        vi = yield from h.create_vi(Reliability.RELIABLE_DELIVERY)
        buf = h.alloc(4096)
        mh = yield from h.register_mem(buf)
        for w in range(16):
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, w * 256, 256)]))
        req = yield from h.connect_wait(4000)
        yield from h.accept(req, vi)

    sproc = tb.spawn(mute_server(), "mute-server")
    cproc = tb.spawn(cli.body(), "client")
    tb.run(sproc)
    tb.run(cproc)
    stats = cli.stats
    assert stats["completed"] == 0
    assert (stats["abandoned"] + stats["deadline_exceeded"]) == n
    # resolved promptly: by the last request's deadline, not the run's
    last_deadline = cli.schedule[-1] + timeout
    assert stats["done_at"] <= last_deadline + 1_000.0


# ---------------------------------------------------------------------------
# byte-determinism with retries + shedding enabled

@given(seed=st.integers(min_value=0, max_value=31))
@settings(max_examples=3, deadline=None)
def test_report_bytes_identical_across_jobs(seed):
    cfg = replace(OVERLOAD, requests=4, seed=seed)
    # two cells, so jobs=2 really fans out (one cell runs inline)
    rates = (24_000.0, 48_000.0)
    serial = run_cluster(("mvia",), cfg, rates=rates, jobs=1)
    fanned = run_cluster(("mvia",), cfg, rates=rates, jobs=2)
    assert serial.to_json() == fanned.to_json()


# ---------------------------------------------------------------------------
# the quiescent exit: a server whose clients keep failures stops polling
# once nothing else can act, and no point moves

# a retry budget of one, past the knee: some requests are lost, their
# clients never disconnect, and the server idles from its last response
IDLE_TAIL = replace(OVERLOAD, requests=4, deadline_us=200_000.0,
                    retry="budget=1")


def _cell_with_server_end(provider, cfg, rate):
    """One cell's point, full harvest and server end time."""
    from repro.cluster.server import ClusterServer
    from repro.obs import MetricsRegistry

    ends = []
    body = ClusterServer.body

    def timed_body(self):
        yield from body(self)
        ends.append(self.tb.now)

    registry = MetricsRegistry()
    with mock.patch.object(ClusterServer, "body", timed_body):
        point = run_cluster_once(provider, cfg, rate, harvest=registry)
    return point, registry.snapshot(), ends[0]


@given(seed=st.integers(min_value=0, max_value=31),
       rate=st.sampled_from([48_000.0, 96_000.0]),
       provider=st.sampled_from(ALL_PROVIDERS))
@settings(max_examples=8, deadline=None)
def test_quiescent_exit_moves_no_point(seed, rate, provider):
    """Against the server polling to its deadline (``quiescent`` forced
    False), the point and every harvested counter but the kernel totals
    and the server's own CPU time are equal, and the server is done
    before its deadline."""
    from repro.cluster.topology import make_topology
    from repro.sim import Simulator

    cfg = replace(IDLE_TAIL, seed=seed)
    point, harvest, end = _cell_with_server_end(provider, cfg, rate)
    with mock.patch.object(Simulator, "quiescent", lambda self: False):
        ref_point, ref_harvest, _ = _cell_with_server_end(provider, cfg,
                                                          rate)
    server = make_topology(cfg.topology, cfg.nodes, cfg.servers).servers[0]
    moved = ("sim.", f"cpu.{server}.server.")

    def kept(snapshot):
        return {k: v for k, v in snapshot.items() if not k.startswith(moved)}

    assert point == ref_point
    assert kept(harvest) == kept(ref_harvest)
    assert end < cfg.deadline_us


def test_quiescent_exit_waits_for_a_parked_dial():
    """A dial parked after its client gave up and ended would still be
    accepted or rejected at the loop's top, so it keeps the loop on."""
    from repro.cluster.server import ClusterServer
    from repro.providers import Testbed
    from repro.via.connection import ConnRequest
    from repro.via.constants import Reliability

    tb = Testbed("mvia")
    srv = ClusterServer(tb, tb.node_names[1], 1, 1)
    connmgr = tb.providers[srv.node].connmgr
    seen = []

    def probe():
        yield tb.sim.timeout(1.0)
        seen.append(srv._idle_for_good(connmgr))
        connmgr.deliver(ConnRequest(1, tb.node_names[0], 0,
                                    srv.discriminator,
                                    Reliability.RELIABLE_DELIVERY))
        seen.append(srv._idle_for_good(connmgr))

    tb.run(tb.spawn(probe(), "probe"))
    tb.close()
    assert seen == [True, False]


# ---------------------------------------------------------------------------
# overload chaos cells

@pytest.mark.parametrize("name", ["retry_storm", "slow_server_shed",
                                  "partition_retry"])
def test_overload_scenarios_pass_quick(name):
    from repro.faults.chaos import run_scenario
    from repro.faults.scenarios import get_scenario

    r = run_scenario("mvia", get_scenario(name), seed=0, quick=True)
    assert r.ok, (r.note, r.violations)


def test_overload_scenario_deterministic():
    from repro.faults.chaos import run_scenario
    from repro.faults.scenarios import get_scenario

    sc = get_scenario("slow_server_shed")
    a = run_scenario("clan", sc, seed=2, quick=True)
    b = run_scenario("clan", sc, seed=2, quick=True)
    assert a.to_dict() == b.to_dict()


def test_rewind_refuses_overload_workload():
    from repro.faults.chaos import rewind_scenario
    from repro.faults.scenarios import get_scenario

    with pytest.raises(ValueError, match="overload workload"):
        rewind_scenario("mvia", get_scenario("retry_storm"))
