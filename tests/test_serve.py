"""Tests for the experiment service: specs, queue, cache, HTTP, SSE.

The service's core contract is byte-identity: a result fetched over the
control plane must equal, byte for byte, what the direct CLI path
produces — whether it was simulated by the worker pool, reassembled from
per-cell checkpoints, or served whole from the result cache.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.serve import (
    ExperimentService,
    ResultCache,
    ServiceClient,
    ServiceError,
    ExperimentSpec,
    SpecError,
    execute_spec,
)
from repro.serve import (client as serve_client, jobs as serve_jobs,
                         service as serve_service)
from repro.serve.jobs import Job, JobQueue, QueueFullError

SMALL_CLUSTER = {"nodes": 2, "clients": 2, "requests": 2,
                 "providers": ["mvia"], "rates": [500.0]}


def _cluster_spec(seed, **over):
    params = dict(SMALL_CLUSTER)
    params.update(over)
    return {"kind": "cluster", "params": params, "seed": seed}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = ExperimentService(port=0, workers=2,
                            cache_dir=str(tmp_path_factory.mktemp("cache")))
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(service.url, client="pytest") as c:
        yield c


# -- specs ------------------------------------------------------------------

def test_spec_round_trips_and_keys_are_stable():
    spec = ExperimentSpec.from_dict(_cluster_spec(3))
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.result_key() == spec.result_key()


def test_sparse_and_explicit_cluster_specs_share_one_key():
    sparse = ExperimentSpec.from_dict(_cluster_spec(5))
    explicit = ExperimentSpec.from_dict(_cluster_spec(
        5, topology="star", window=4, arrival="poisson", mode="open",
        service="fixed:20", tenants=1))
    assert sparse.result_key() == explicit.result_key()


def test_quick_flag_and_spelled_out_grid_share_one_key():
    from repro.cluster import QUICK_RATE_GRID

    quick = ExperimentSpec.from_dict(
        {"kind": "cluster", "params": {"quick": True}, "seed": 1})
    spelled = ExperimentSpec.from_dict(
        {"kind": "cluster",
         "params": {"rates": list(QUICK_RATE_GRID)}, "seed": 1})
    assert quick.result_key() == spelled.result_key()


def test_seed_and_params_change_the_key():
    base = ExperimentSpec.from_dict(_cluster_spec(0))
    assert base.result_key() != \
        ExperimentSpec.from_dict(_cluster_spec(1)).result_key()
    assert base.result_key() != \
        ExperimentSpec.from_dict(_cluster_spec(0, requests=4)).result_key()


@pytest.mark.parametrize("bad", [
    {"kind": "nope", "params": {}},
    {"kind": "run", "params": {"benchmark": "no_such_bench"}},
    {"kind": "run", "params": {"benchmark": "base_latency",
                               "fidelity": "warp"}},
    {"kind": "run", "params": {"benchmark": "base_latency",
                               "provider": "nope"}},
    {"kind": "run", "params": {"benchmark": "multivi_latency",
                               "sizes": [4]}},
    {"kind": "cluster", "params": {"bogus_param": 1}},
    {"kind": "cluster", "params": {"providers": ["enoexist"]}},
    {"kind": "chaos", "params": {"scenarios": ["no_such_scenario"]}},
    {"kind": "run", "params": {"benchmark": "base_latency"}, "seed": "x"},
    {"kind": "run", "params": {"benchmark": "base_latency",
                               "sizes": ["abc"]}},
    {"kind": "run", "params": {"benchmark": "base_latency",
                               "sizes": [-5]}},
    # cluster params the runner would only reject at execution
    _cluster_spec(0, rates=["x"]),
    _cluster_spec(0, rates=[0]),
    _cluster_spec(0, fidelity="bogus"),
    _cluster_spec(0, topology="ring"),
    _cluster_spec(0, nodes=0),
    _cluster_spec(0, nodes="4"),
    _cluster_spec(0, service="bogus:1"),
    _cluster_spec(0, retry="bogus"),
    _cluster_spec(0, server_policy="bogus"),
    _cluster_spec(0, arrival="bogus"),
    _cluster_spec(0, mode="bogus"),
    _cluster_spec(0, clients=-1),
    _cluster_spec(0, requests=0),
    _cluster_spec(0, deadline_us=-1.0),
])
def test_malformed_specs_raise_spec_error(bad):
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict(bad)


# -- job queue --------------------------------------------------------------

def _job(client="c", seed=0):
    return Job(ExperimentSpec.from_dict(_cluster_spec(seed)), client)


def test_queue_is_fifo_within_a_client_and_round_robin_across():
    q = JobQueue(capacity=16)
    a1, a2, b1 = _job("alice", 1), _job("alice", 2), _job("bob", 3)
    for j in (a1, a2, b1):
        q.submit(j)
    taken = [q.take(0.1) for _ in range(3)]
    assert taken == [a1, b1, a2]  # alice, bob, alice again
    assert q.take(0.01) is None


def test_queue_capacity_overflow_raises():
    q = JobQueue(capacity=2)
    q.submit(_job(seed=1))
    q.submit(_job(seed=2))
    with pytest.raises(QueueFullError):
        q.submit(_job(seed=3))


def _stepped_clock() -> SimpleNamespace:
    """Stand-in ``time`` module whose wall clock jumps an hour forward
    after its first read, so a deadline taken from it is stale mid-wait."""
    offsets = iter([0.0])
    return SimpleNamespace(time=lambda: time.time() + next(offsets, 3600.0),
                           monotonic=time.monotonic, sleep=time.sleep)


def test_queue_take_survives_wall_clock_step(monkeypatch):
    q, job = JobQueue(capacity=4), _job(seed=1)
    monkeypatch.setattr(serve_jobs, "time", _stepped_clock())
    threading.Timer(0.2, q.submit, (job,)).start()
    assert q.take(30.0) is job


def test_client_wait_survives_wall_clock_step(monkeypatch):
    states = iter(["queued", "running", "done"])
    monkeypatch.setattr(ServiceClient, "job",
                        lambda self, job_id: {"state": next(states)})
    monkeypatch.setattr(serve_client, "time", _stepped_clock())
    cli = ServiceClient("http://127.0.0.1:1")
    assert cli.wait("job-1", timeout=30.0, poll=0.01)["state"] == "done"


def test_cancel_queued_job_is_removed_and_queue_not_wedged():
    q = JobQueue(capacity=8)
    first, victim, last = _job(seed=1), _job(seed=2), _job(seed=3)
    for j in (first, victim, last):
        q.submit(j)
    assert q.cancel(victim.id)
    assert victim.state == "cancelled"
    assert [q.take(0.1), q.take(0.1)] == [first, last]
    assert q.take(0.01) is None


# -- result cache -----------------------------------------------------------

def test_result_cache_round_trip_and_corruption_defences(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = ExperimentSpec.from_dict(_cluster_spec(9))
    key = spec.result_key()
    assert cache.get(key) is None
    cache.put(key, spec.to_dict(), '{"fine": 1}')
    assert cache.get(key) == '{"fine": 1}'
    # flipping a byte of the stored payload must read as a miss
    path = cache.path(key)
    entry = json.loads(open(path).read())
    entry["result"] = '{"fine": 2}'
    open(path, "w").write(json.dumps(entry))
    assert cache.get(key) is None


def test_code_version_skew_invalidates_cached_results(tmp_path,
                                                      monkeypatch):
    cache = ResultCache(str(tmp_path))
    spec = ExperimentSpec.from_dict(_cluster_spec(10))
    old_key = spec.result_key()
    cache.put(old_key, spec.to_dict(), "{}")
    assert cache.get(old_key) == "{}"
    # the same entry read by a build with a bumped CODE_VERSION: stale
    monkeypatch.setattr("repro.serve.cache.CODE_VERSION", "repro-9.9.9")
    assert cache.get(old_key) is None
    # and the key itself moves, so the new build never even looks there
    assert spec.result_key() != old_key


def test_concurrent_cell_writers_never_collide(tmp_path):
    cache = ResultCache(str(tmp_path))
    point = {"goodput_rps": 1234.5, "violations": []}
    errors = []

    def write():
        try:
            for _ in range(300):
                cache.put_cell("racy", point)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=write) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the writers often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert cache.get_cell("racy") == point
    assert os.listdir(tmp_path) == ["cell-racy.json"]


def test_altered_cell_reads_as_a_miss_and_is_recomputed(tmp_path):
    from repro.cluster import ClusterConfig, cell_key, run_cluster

    cfg = ClusterConfig(nodes=2, clients=2, requests=2, seed=52)
    ckpt = str(tmp_path / "ckpt")
    cold = run_cluster(("mvia",), cfg, rates=(500.0,)).to_json()
    run_cluster(("mvia",), cfg, rates=(500.0,), checkpoint_dir=ckpt)
    cache = ResultCache(ckpt)
    key = cell_key("mvia", cfg, 500.0, False)
    path = pathlib.Path(cache.path(key, "cell"))
    entry = json.loads(path.read_text())
    point = json.loads(entry["result"])
    point["p99_us"] += 1.0
    entry["result"] = json.dumps(point, sort_keys=True)
    path.write_text(json.dumps(entry))
    assert cache.get_cell(key) is None
    resumed = run_cluster(("mvia",), cfg, rates=(500.0,),
                          checkpoint_dir=ckpt)
    assert resumed.to_json() == cold
    assert cache.get_cell(key) is not None  # healed by the recompute


# -- direct CLI == served, by construction ----------------------------------

_SMALL_CLUSTER_FLAGS = ["--provider", "mvia", "--nodes", "2", "--clients",
                        "2", "--requests", "2", "--rate", "500"]
_LANAI_NEXT = (pathlib.Path(__file__).parents[1] / "examples" / "specs"
               / "lanai_next.json")


@pytest.mark.parametrize("direct, submit", [
    (["run", "base_latency", "--provider", "mvia"],
     ["submit", "run", "base_latency", "--provider", "mvia"]),
    (["cluster", *_SMALL_CLUSTER_FLAGS],
     ["submit", "cluster", *_SMALL_CLUSTER_FLAGS]),
    (["--providers", "mvia", "chaos", "--quick", "--scenario", "loss_burst"],
     ["submit", "chaos", "--provider", "mvia", "--quick",
      "--scenario", "loss_burst"]),
], ids=["run", "cluster", "chaos"])
def test_direct_cli_writes_the_served_bytes(direct, submit, tmp_path,
                                            capsys):
    from repro.cli import _submit_spec, build_parser, main

    out = tmp_path / "direct.json"
    main(direct + ["--json-out", str(out)])
    direct_spec, served_spec = (
        ExperimentSpec.from_dict(_submit_spec(build_parser().parse_args(a)))
        for a in (direct, submit))
    assert direct_spec.result_key() == served_spec.result_key()
    assert out.read_text() == execute_spec(served_spec)


def test_vibe_run_connection_churn_writes_a_one_point_result(tmp_path,
                                                            capsys):
    from repro.cli import main

    out = tmp_path / "churn.json"
    main(["run", "connection_churn", "--provider", "mvia",
          "--json-out", str(out)])
    [result] = json.loads(out.read_text())["results"]
    assert result["benchmark"] == "connection_churn"
    assert result["meta"]["params"] == {"benchmark": "connection_churn"}
    assert [p["param"] for p in result["points"]] == ["mvia"]
    assert result["points"][0]["extra"]["cycles_per_s"] > 0
    spec = ExperimentSpec.from_dict({"kind": "run", "params": {
        "benchmark": "connection_churn", "provider": "mvia"}})
    assert out.read_text() == execute_spec(spec)
    assert "connection_churn [mvia]" in capsys.readouterr().out


def test_provider_spec_file_runs_as_an_inline_design(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "design.json"
    main(["run", "base_latency", "--provider-spec", str(_LANAI_NEXT),
          "--json-out", str(out)])
    design = json.loads(_LANAI_NEXT.read_text())
    spec = ExperimentSpec.from_dict({"kind": "run", "params": {
        "benchmark": "base_latency", "provider": design}})
    assert out.read_text() == execute_spec(spec)
    # the design is part of the content address
    changed = {**design, "costs": {**design["costs"], "vi_create": 99.0}}
    other = ExperimentSpec.from_dict({"kind": "run", "params": {
        "benchmark": "base_latency", "provider": changed}})
    assert other.result_key() != spec.result_key()


_BAD_DESIGNS = [{"choices": {"bogus": 1}}, {"base": "missing-provider"},
                {"costs": [1]}, [1, 2]]


@pytest.mark.parametrize("design", _BAD_DESIGNS)
def test_malformed_inline_design_is_a_spec_error(design):
    with pytest.raises(SpecError, match="bad provider design"):
        ExperimentSpec.from_dict({"kind": "run", "params": {
            "benchmark": "base_latency", "provider": design}})


# -- end-to-end over HTTP ---------------------------------------------------

def _submit_and_fetch(client, spec, timeout=240.0):
    job = client.submit(spec)
    client.wait(job["id"], timeout=timeout)
    body, hit = client.result(job["id"])
    return client.job(job["id"]), body, hit


def test_served_cluster_result_is_byte_identical_to_direct(client):
    spec = _cluster_spec(21)
    direct = execute_spec(ExperimentSpec.from_dict(spec))
    summary, body, hit = _submit_and_fetch(client, spec)
    assert summary["state"] == "done"
    assert body == direct
    assert hit is False
    assert summary["cells_total"] == 1
    assert summary["cells_done"] == 1


def test_served_run_result_is_byte_identical_to_direct(client):
    spec = {"kind": "run",
            "params": {"benchmark": "base_latency", "provider": "clan",
                       "sizes": [64, 256]},
            "seed": 22}
    direct = execute_spec(ExperimentSpec.from_dict(spec))
    summary, body, hit = _submit_and_fetch(client, spec)
    assert body == direct
    assert hit is False


def test_resubmit_is_a_cache_hit_with_identical_bytes(client):
    spec = _cluster_spec(23)
    _, first, hit0 = _submit_and_fetch(client, spec)
    job = client.submit(spec)
    # a cache-hit job is born finished: no queue, no simulation
    assert job["state"] == "done"
    assert job["cache_hit"] is True
    body, hit = client.result(job["id"])
    assert hit is True
    assert body == first


def test_concurrent_clients_get_isolated_correct_results(service):
    specs = {"one": _cluster_spec(31),
             "two": _cluster_spec(32, requests=3)}
    direct = {name: execute_spec(ExperimentSpec.from_dict(s))
              for name, s in specs.items()}
    assert direct["one"] != direct["two"]
    out, errors = {}, []

    def go(name):
        try:
            with ServiceClient(service.url, client=name) as c:
                _, body, _hit = _submit_and_fetch(c, specs[name])
            out[name] = body
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=go, args=(n,)) for n in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert out == direct


def test_sse_stream_reports_every_cell_exactly_once(client):
    spec = _cluster_spec(33, providers=["mvia", "bvia"],
                         rates=[500.0, 1000.0])
    job = client.submit(spec)
    events = list(client.follow(job["id"]))
    cells = [e for e in events if e["event"] == "cell"]
    assert len(cells) == 4
    assert sorted(e["index"] for e in cells) == [0, 1, 2, 3]
    assert {(e["provider"], e["rate"]) for e in cells} == {
        ("mvia", 500.0), ("mvia", 1000.0),
        ("bvia", 500.0), ("bvia", 1000.0)}
    assert [e["event"] for e in events].count("done") == 1
    # the event log replays identically for a late subscriber
    again = list(client.follow(job["id"]))
    assert again == events


def test_http_errors_are_structured(client):
    with pytest.raises(ServiceError) as err:
        client.job("job-999999")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.submit({"kind": "run",
                       "params": {"benchmark": "enoexist"}})
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.result("job-999999")
    assert err.value.status == 404
    # a failed number conversion is a 400 too, and the service lives on
    with pytest.raises(ServiceError) as err:
        client.submit(_cluster_spec(0, rates=["x"]))
    assert err.value.status == 400
    assert client.health()["ok"] is True


#: run specs whose sizes the benchmark cannot run: over bvia's and
#: mvia's maximum transfer size, and a zero-byte registration
_UNRUNNABLE_SIZES = [("base_latency", "bvia", [40000]),
                     ("cq_latency", "mvia", [70000]),
                     ("memreg", "clan", [0])]


@pytest.mark.parametrize("bench,provider,sizes", _UNRUNNABLE_SIZES)
def test_unrunnable_sizes_are_refused_up_front(client, bench, provider,
                                               sizes):
    spec = {"kind": "run", "params": {"benchmark": bench,
                                      "provider": provider,
                                      "sizes": sizes}}
    with pytest.raises(SpecError, match=f"size {sizes[0]} "):
        ExperimentSpec.from_dict(spec)
    with pytest.raises(ServiceError) as err:
        client.submit(spec)
    assert err.value.status == 400
    assert client.health()["ok"] is True


def test_sizes_at_the_limits_are_accepted():
    def spec(benchmark, provider, sizes):
        return ExperimentSpec.from_dict({"kind": "run", "params": {
            "benchmark": benchmark, "provider": provider, "sizes": sizes}})

    spec("base_latency", "bvia", [0, 32768])
    spec("memreg", "clan", [1, 1 << 20])  # registration has no cap
    # an inline design's limit comes from its own costs
    small = {"base": "bvia", "costs": {"max_transfer_size": 1000}}
    spec("base_latency", small, [1000])
    with pytest.raises(SpecError, match="custom-bvia's message sizes"):
        spec("base_latency", small, [1001])


def test_malformed_inline_design_is_an_http_400(client):
    for design in _BAD_DESIGNS:
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "run", "params": {
                "benchmark": "base_latency", "provider": design}})
        assert err.value.status == 400
        assert "bad provider design" in str(err.value)


def test_health_and_metrics_endpoints(client):
    from repro.serve.cache import CODE_VERSION

    health = client.health()
    assert health["ok"] is True
    assert health["code_version"] == CODE_VERSION
    metrics = client.metrics()
    assert "serve.jobs.submitted" in metrics["metrics"]
    assert metrics["meta"]["code_version"] == CODE_VERSION


def test_jobs_listing_includes_submitted_jobs(client):
    listed = {j["id"] for j in client.jobs()}
    job = client.submit(_cluster_spec(23))  # cached by earlier test
    assert job["id"] not in listed
    assert job["id"] in {j["id"] for j in client.jobs()}


# -- lifecycle ----------------------------------------------------------------

def test_start_on_busy_port_leaves_service_restartable(tmp_path):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    holder = socket.socket()
    try:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        busy = holder.getsockname()[1]
        svc = ExperimentService(port=busy, workers=1, cache_dir=cache_dir)
        with pytest.raises(OSError):
            svc.start()
        svc.stop()   # nothing started: a no-op, not an error
        svc.port = 0
        svc.start()
        try:
            with ServiceClient(svc.url) as c:
                assert c.health()["ok"] is True
        finally:
            svc.stop()
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--port", str(busy), "--workers", "1",
                  "--cache-dir", cache_dir])
        message = str(exited.value.code)
        assert f"127.0.0.1:{busy}" in message and "\n" not in message
    finally:
        holder.close()


# -- transport: kept connections ---------------------------------------------

def _connections(svc) -> int:
    """Connections the service has accepted, read in-process."""
    metrics = json.loads(svc.metrics_json())["metrics"]
    return metrics.get("serve.http.connections", {}).get("value", 0)


def _hold_runs(svc) -> threading.Event:
    """Hold every job the runners take until the returned event is set."""
    release, run_job = threading.Event(), svc._run_job

    def held(job):
        release.wait(60)
        run_job(job)
    svc._run_job = held
    return release


def test_calls_on_one_client_share_one_connection(service):
    before = _connections(service)
    with ServiceClient(service.url, client="kept") as c:
        for _ in range(5):
            assert c.health()["ok"] is True
        c.metrics()
        c.jobs()
        with pytest.raises(ServiceError) as err:
            c.job("job-999999")
        assert err.value.status == 404
        job = c.submit(_cluster_spec(23, requests=3))
        assert c.wait(job["id"], timeout=120, poll=0.01)["state"] == "done"
        c.result(job["id"])
    assert _connections(service) == before + 1


def test_kept_connection_answers_without_delayed_ack_stalls(service):
    # without TCP_NODELAY each response's body waits for the client's
    # delayed ACK of its headers: about 40 ms a call instead of < 1 ms
    with ServiceClient(service.url) as c:
        c.health()
        t0 = time.monotonic()
        for _ in range(20):
            c.health()
        assert time.monotonic() - t0 < 0.4


def test_connection_closed_by_the_idle_timeout_is_replaced_once(
        tmp_path, monkeypatch):
    monkeypatch.setattr(serve_service, "IDLE_TIMEOUT_S", 0.2)
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    try:
        with ServiceClient(svc.url) as c:
            assert c.health()["ok"] is True
            time.sleep(0.6)   # the service closes the idle connection
            assert c.health()["ok"] is True
            assert _connections(svc) == 2
    finally:
        svc.stop()


def test_kept_connection_outlives_a_restart_on_the_same_port(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = _cluster_spec(61)
    first = ExperimentService(port=0, workers=1, cache_dir=cache_dir)
    first.start()
    c = ServiceClient(first.url)   # closed by its last, failing call
    try:
        _, body, _hit = _submit_and_fetch(c, spec)
    finally:
        first.stop()
    again = ExperimentService(port=first.port, workers=1,
                              cache_dir=cache_dir)
    again.start()
    try:
        # the kept connection died with the first service: the submit
        # is resent once on a new one, and the new service sees it once
        job = c.submit(spec)
        assert job["cache_hit"] is True
        assert c.result(job["id"]) == (body, True)
        submitted = json.loads(again.metrics_json())["metrics"][
            "serve.jobs.submitted"]["value"]
        assert submitted == 1
    finally:
        again.stop()
    with pytest.raises(ServiceError) as err:
        c.health()
    assert err.value.status == 0


def test_unknown_route_with_a_body_keeps_the_connection(service):
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=30)
    try:
        conn.request("POST", "/no/such/route", body=b'{"x": 1}',
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 404
        resp.read()
        sock = conn.sock
        assert sock is not None
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["ok"] is True
        assert conn.sock is sock
    finally:
        conn.close()


def test_body_without_content_length_is_refused_and_closed(service):
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=30)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders(b"2\r\n{}\r\n0\r\n\r\n")
        resp = conn.getresponse()
        assert resp.status == 411
        assert resp.getheader("Connection") == "close"
        assert "Content-Length" in json.loads(resp.read())["error"]
        assert conn.sock is None   # the service closed the connection
    finally:
        conn.close()
    with ServiceClient(service.url) as c:
        assert c.health()["ok"] is True


def test_503_while_stopping_keeps_the_connection(tmp_path):
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    release = _hold_runs(svc)
    stopper = threading.Thread(target=svc.stop)
    try:
        with ServiceClient(svc.url) as c:
            job = c.submit(_cluster_spec(62))
            stopper.start()
            assert svc._stopping.wait(10)
            # the drain waits for the held job; the kept connection
            # still answers, and a submission's body is read and refused
            with pytest.raises(ServiceError) as err:
                c.submit(_cluster_spec(63))
            assert err.value.status == 503
            assert c.job(job["id"])["state"] in ("queued", "running")
            assert _connections(svc) == 1
            release.set()
            stopper.join(60)
            assert not stopper.is_alive()
            assert job["id"] in {j.id for j in svc.queue.jobs()
                                 if j.state == "done"}
    finally:
        release.set()
        if stopper.is_alive():
            stopper.join(60)
        svc.stop()


def test_stop_closes_an_idle_kept_connection_promptly(tmp_path,
                                                      monkeypatch):
    # long enough that stop() would hang if it waited for the timeout
    monkeypatch.setattr(serve_service, "IDLE_TIMEOUT_S", 120.0)
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    with ServiceClient(svc.url) as c:
        assert c.health()["ok"] is True
        t0 = time.monotonic()
        svc.stop()
        assert time.monotonic() - t0 < 10.0
        with pytest.raises(ServiceError) as err:
            c.health()
        assert err.value.status == 0


def test_follow_never_blocks_calls_on_the_same_client(tmp_path):
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    release = _hold_runs(svc)
    try:
        with ServiceClient(svc.url) as c:
            job = c.submit(_cluster_spec(64))
            streaming, events = threading.Event(), []

            def follow():
                for event in c.follow(job["id"]):
                    events.append(event["event"])
                    streaming.set()
            follower = threading.Thread(target=follow)
            follower.start()
            assert streaming.wait(30)
            assert c.job(job["id"])["state"] in ("queued", "running")
            assert c.cancel(job["id"])["cancelled"] is True
            release.set()
            follower.join(60)
            assert not follower.is_alive()
            assert events[-1] == "cancelled"
    finally:
        release.set()
        svc.stop()


# -- cancellation under a busy worker ---------------------------------------

def test_cancel_queued_job_via_api_never_wedges_the_worker(tmp_path):
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    try:
        with ServiceClient(svc.url, client="cancel-test") as c:
            # requests=6 keeps the single worker busy long enough for
            # the next submissions to be reliably queued behind it
            busy = c.submit(_cluster_spec(41, requests=6))
            victim = c.submit(_cluster_spec(42))
            out = c.cancel(victim["id"])
            assert out["cancelled"] is True
            assert c.wait(victim["id"], timeout=60)["state"] == "cancelled"
            # the worker survives: both the running job and a fresh one
            # still complete normally
            assert c.wait(busy["id"], timeout=240)["state"] == "done"
            after = c.submit(_cluster_spec(43))
            assert c.wait(after["id"], timeout=240)["state"] == "done"
    finally:
        svc.stop()


# -- cell-cache sharing with campaign checkpoints ---------------------------

def test_service_reuses_cluster_checkpoint_cells(tmp_path):
    """A --checkpoint-dir campaign and the service share cell identity:
    cells simulated by one are cache hits for the other."""
    from repro.cluster import ClusterConfig, run_cluster

    cache_dir = str(tmp_path / "shared")
    cfg = ClusterConfig(nodes=2, clients=2, requests=2, seed=51)
    direct = run_cluster(("mvia",), cfg, rates=(500.0,),
                         checkpoint_dir=cache_dir)
    svc = ExperimentService(port=0, workers=1, cache_dir=cache_dir)
    svc.start()
    try:
        with ServiceClient(svc.url, client="ckpt") as c:
            summary, body, hit = _submit_and_fetch(c, _cluster_spec(51))
        # whole-spec cache can't hit (the campaign never stored one),
        # but every cell must come from the campaign's checkpoints
        assert hit is False
        assert summary["cell_cache_hits"] == summary["cells_total"] == 1
        assert body == direct.to_json()
    finally:
        svc.stop()
