"""Tests for the ``repro serve`` daemon: queue, HTTP API, client, shutdown."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SimOptions, Simulator, build_usecase
from repro.api.registry import register_usecase
from repro.explore import ExplorationResult, explore, space_from_dict
from repro.serve import (
    BackgroundServer,
    JobQueue,
    QueueClosed,
    ServeClient,
    ServeError,
    ServeTimeout,
    StreamBuffer,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _explore_spec(rates, usecase="fig5", name=None):
    """A one-axis options sweep: cheap, and every rate is a cache key."""
    spec = {
        "schema": "repro.explore-spec/1",
        "usecase": usecase,
        "space": {"name": "options.frame_rate",
                  "values": [float(rate) for rate in rates]},
        "objectives": ["energy_per_frame", "latency"],
    }
    if name is not None:
        spec["name"] = name
    return spec


def _run_spec(frame_rate):
    return {"design": {"usecase": "fig5"},
            "options": {"frame_rate": float(frame_rate)}}


# --- a builder the tests can hold hostage ----------------------------------

_GATE = threading.Event()
_GATE_ENTERED = threading.Event()


def _gated_fig5():
    """Blocks inside the build phase until the test releases the gate."""
    _GATE_ENTERED.set()
    if not _GATE.wait(timeout=30.0):
        raise RuntimeError("test gate was never released")
    return build_usecase("fig5")


@pytest.fixture
def gated_usecase():
    from repro.api import registry

    _GATE.clear()
    _GATE_ENTERED.clear()
    register_usecase("serve-test-gated", _gated_fig5)
    yield "serve-test-gated"
    registry._REGISTRY.pop("serve-test-gated", None)
    _GATE.set()  # release any straggler worker thread


# --- shared daemon for the read-mostly tests --------------------------------

@pytest.fixture(scope="module")
def server():
    with BackgroundServer(workers=2, chunk_size=2) as background:
        yield background


@pytest.fixture
def client(server):
    return server.client()


class TestStreamBuffer:
    def test_cursor_reads_and_close(self):
        buffer = StreamBuffer()
        buffer.append({"event": "a"})
        buffer.append({"event": "b"})
        events, cursor, closed = buffer.read_from(0)
        assert [event["event"] for event in events] == ["a", "b"]
        assert cursor == 2 and not closed
        events, cursor, closed = buffer.read_from(cursor)
        assert events == [] and cursor == 2
        buffer.append({"event": "c"})
        buffer.close()
        events, cursor, closed = buffer.read_from(cursor)
        assert [event["event"] for event in events] == ["c"]
        assert closed
        assert len(buffer) == 3

    def test_append_after_close_raises(self):
        buffer = StreamBuffer()
        buffer.close()
        buffer.close()  # idempotent
        with pytest.raises(RuntimeError):
            buffer.append({"event": "late"})


class TestQueueGuards:
    def test_unstarted_queue_rejects_submissions(self):
        queue = JobQueue(Simulator())
        spec = _explore_spec([30.0])
        from repro.explore.spec import exploration_spec_from_dict
        with pytest.raises(QueueClosed):
            queue.submit_explore(exploration_spec_from_dict(spec))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JobQueue(Simulator(), workers=0)
        with pytest.raises(ValueError):
            JobQueue(Simulator(), chunk_size=0)


class TestHealthAndStats:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["schema"] == "repro.serve-stats/1"
        assert stats["workers"] == 2
        assert stats["chunk_size"] == 2
        assert stats["queue_depth"] >= 0
        assert set(stats["jobs"]) == {"queued", "running", "done",
                                      "failed", "cancelled"}
        assert {"hits", "misses"} <= set(stats["cache"])
        assert stats["pools"]["executor"] == "thread"
        assert stats["pools"]["terminal"] is False
        assert stats["requests_served"] >= 1


class TestRunJobs:
    def test_run_job_lifecycle_and_result(self, client):
        job = client.submit(_run_spec(47.0))
        assert job["schema"] == "repro.serve-job/1"
        assert job["kind"] == "run"
        assert job["state"] in ("queued", "running", "done")
        assert job["links"]["result"] == f"/jobs/{job['id']}/result"

        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done"
        assert done["progress"] == {"total": 1, "completed": 1,
                                    "cache_hits": 0}
        assert done["error"] is None
        assert done["finished_at"] >= done["started_at"] >= done["created_at"]

        envelope = client.result(job["id"])
        assert envelope["kind"] == "run"
        from repro.api import SimResult
        result = SimResult.from_dict(envelope["result"])
        direct = Simulator(cache=False).run(
            build_usecase("fig5"), SimOptions(frame_rate=47.0))
        assert result.ok
        assert result.report.total_energy \
            == pytest.approx(direct.report.total_energy)

    def test_warm_run_counts_a_cache_hit(self, client):
        spec = _run_spec(48.0)
        first = client.wait(client.submit(spec)["id"], timeout=60.0)
        assert first["progress"]["cache_hits"] == 0
        second = client.wait(client.submit(spec)["id"], timeout=60.0)
        assert second["state"] == "done"
        assert second["progress"]["cache_hits"] == 1

    def test_explicit_kind_envelope(self, client):
        job = client.submit(_run_spec(49.0), kind="run")
        assert job["kind"] == "run"
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"


class TestExploreJobs:
    def test_explore_job_matches_direct_engine(self, client):
        rates = [31.0, 37.0, 41.0, 43.0]
        job = client.submit(_explore_spec(rates, name="serve-study"))
        assert job["kind"] == "explore"
        assert job["name"] == "serve-study"

        done = client.wait(job["id"], timeout=120.0)
        assert done["state"] == "done"
        assert done["progress"]["total"] == len(rates)
        assert done["progress"]["completed"] == len(rates)

        document = client.result(job["id"])["result"]
        served = ExplorationResult.from_dict(document)
        assert served.to_dict() == document  # exact JSON round-trip
        direct = explore(
            space_from_dict({"name": "options.frame_rate",
                             "values": rates}), "fig5",
            objectives=["energy_per_frame", "latency"])
        assert [point.params for point in served.points] \
            == [point.params for point in direct.points]
        assert [point.metrics for point in served.points] \
            == [point.metrics for point in direct.points]

    def test_identical_resubmit_is_all_cache_hits(self, client):
        spec = _explore_spec([53.0, 59.0, 61.0])
        cold = client.wait(client.submit(spec)["id"], timeout=120.0)
        assert cold["progress"]["cache_hits"] == 0
        warm = client.wait(client.submit(spec)["id"], timeout=120.0)
        assert warm["state"] == "done"
        assert warm["progress"]["cache_hits"] == 3
        assert warm["progress"]["completed"] == 3

    def test_jobs_listing_knows_the_job(self, client):
        job = client.submit(_explore_spec([67.0]))
        client.wait(job["id"], timeout=60.0)
        listed = {entry["id"]: entry for entry in client.jobs()}
        assert listed[job["id"]]["state"] == "done"


class TestStreaming:
    def test_jsonl_stream_replays_points_in_space_order(self, client):
        rates = [71.0, 73.0, 79.0]
        job = client.submit(_explore_spec(rates))
        events = list(client.stream(job["id"]))
        points = [event for event in events if event["event"] == "point"]
        assert [point["point"]["params"]["options.frame_rate"]
                for point in points] == rates
        assert events[-1]["event"] == "done"
        assert events[-1]["job"]["state"] == "done"

    def test_sse_stream_after_completion(self, client):
        job = client.submit(_explore_spec([83.0]))
        client.wait(job["id"], timeout=60.0)
        connection = http.client.HTTPConnection(*client_address(client),
                                                timeout=30.0)
        try:
            connection.request(
                "GET", f"/jobs/{job['id']}/stream?format=sse")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert "event: point\n" in body
        assert "event: done\n" in body
        assert "data: " in body

    def test_bad_stream_format_rejected(self, client):
        job = client.submit(_explore_spec([89.0]))
        client.wait(job["id"], timeout=60.0)
        with pytest.raises(ServeError) as excinfo:
            http_get_json(client, f"/jobs/{job['id']}/stream?format=xml")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "BadFormat"


def client_address(client):
    return client.host, client.port


def http_get_json(client, path):
    """A raw GET that raises ServeError like the client does."""
    connection = http.client.HTTPConnection(*client_address(client),
                                            timeout=30.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        raw = response.read()
        if response.status >= 400:
            error = json.loads(raw)["error"]
            raise ServeError(response.status, error["type"],
                             error["message"])
        return json.loads(raw)
    finally:
        connection.close()


def http_post_raw(client, path, body, method="POST"):
    connection = http.client.HTTPConnection(*client_address(client),
                                            timeout=30.0)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestErrorResponses:
    def test_invalid_json_body(self, client):
        status, payload = http_post_raw(client, "/jobs", b"{not json")
        assert status == 400
        assert payload["error"]["type"] == "InvalidJSON"

    def test_non_object_spec(self, client):
        status, payload = http_post_raw(client, "/jobs", b"[1, 2, 3]")
        assert status == 400
        assert payload["error"]["type"] == "InvalidSpec"

    def test_bad_envelope_kind(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit(_run_spec(30.0), kind="dance")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "InvalidSpec"

    def test_unknown_usecase_in_explore_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit(_explore_spec([30.0], usecase="warp-drive"))
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ConfigurationError"
        assert "warp-drive" in excinfo.value.message

    def test_malformed_explore_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"usecase": "fig5", "space": {"bogus": True}})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"

    def test_malformed_run_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"nonsense": True})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"

    def test_bad_options_in_run_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"design": {"usecase": "fig5"}, "options": 5})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ConfigurationError"

    def test_non_string_usecase_in_run_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"design": {"usecase": ["fig5"]}})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ConfigurationError"

    def test_non_object_params_in_robust_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "monte_carlo", "usecase": "fig5",
                           "params": [1], "samples": 2}, kind="robust")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"

    def test_unknown_job_is_404_everywhere(self, client):
        for call in (client.job, client.result, client.cancel):
            with pytest.raises(ServeError) as excinfo:
                call("job-999999")
            assert excinfo.value.status == 404
            assert excinfo.value.error_type == "UnknownJob"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            http_get_json(client, "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"

    def test_method_not_allowed(self, client):
        status, payload = http_post_raw(client, "/healthz", b"")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"
        status, payload = http_post_raw(client, "/jobs", b"{}",
                                        method="PUT")
        assert status == 405

    def test_oversized_body_rejected(self, client):
        connection = http.client.HTTPConnection(*client_address(client),
                                                timeout=30.0)
        try:
            connection.request(
                "POST", "/jobs", body=b"",
                headers={"Content-Length": str(64 * 1024 * 1024)})
            response = connection.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"]["type"] \
                == "PayloadTooLarge"
        finally:
            connection.close()


class TestCancellation:
    def test_cancel_queued_job(self, gated_usecase):
        with BackgroundServer(workers=1) as background:
            client = background.client()
            hostage = client.submit(_explore_spec([30.0],
                                                  usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            queued = client.submit(_explore_spec([30.0, 60.0]))
            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            assert cancelled["cancel_requested"] is True
            assert cancelled["progress"]["completed"] == 0
            with pytest.raises(ServeError) as excinfo:
                client.result(queued["id"])
            assert excinfo.value.status == 409
            assert excinfo.value.error_type == "JobNotDone"
            # The cancelled job's stream seals with its terminal state.
            events = list(client.stream(queued["id"]))
            assert events[-1]["event"] == "done"
            assert events[-1]["job"]["state"] == "cancelled"
            _GATE.set()
            assert client.wait(hostage["id"], timeout=60.0)["state"] \
                == "done"

    def test_cancel_running_job_at_chunk_boundary(self, gated_usecase):
        with BackgroundServer(workers=1, chunk_size=1) as background:
            client = background.client()
            job = client.submit(_explore_spec(
                [30.0, 45.0, 60.0], usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)  # chunk 1 is building
            requested = client.cancel(job["id"])
            assert requested["cancel_requested"] is True
            assert requested["state"] == "running"
            _GATE.set()
            final = client.wait(job["id"], timeout=60.0)
            assert final["state"] == "cancelled"
            # Chunk 1 finished; the stop flag fired before chunk 2.
            assert final["progress"]["completed"] == 1
            assert final["progress"]["total"] == 3
            with pytest.raises(ServeError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409

    def test_cancel_terminal_job_is_a_noop(self, client):
        job = client.submit(_run_spec(97.0))
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"
        after = client.cancel(job["id"])
        assert after["state"] == "done"
        assert client.result(job["id"])["result"] is not None


class TestConcurrentClients:
    def test_submitters_share_one_cache(self):
        rates = [101.0, 103.0, 107.0, 109.0]
        spec = _explore_spec(rates)
        with BackgroundServer(workers=2) as background:
            cold = background.client()
            first = cold.wait(cold.submit(spec)["id"], timeout=120.0)
            assert first["state"] == "done"
            assert first["progress"]["cache_hits"] == 0

            outcomes = []
            errors = []

            def submit_and_wait():
                try:
                    mine = background.client()
                    job = mine.submit(spec)
                    outcomes.append(mine.wait(job["id"], timeout=120.0))
                except BaseException as error:  # surfaced via assert below
                    errors.append(error)

            threads = [threading.Thread(target=submit_and_wait)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors
            assert len(outcomes) == 2
            for outcome in outcomes:
                assert outcome["state"] == "done"
                # Every point was served from the shared warm cache.
                assert outcome["progress"]["cache_hits"] == len(rates)

            stats = background.client().stats()
            assert stats["cache"]["hits"] >= 2 * len(rates)
            assert stats["jobs"]["done"] == 3


class TestGracefulShutdown:
    def test_shutdown_flushes_jobs_to_terminal_states(self, gated_usecase):
        background = BackgroundServer(workers=1, chunk_size=1)
        background.__enter__()
        try:
            client = background.client()
            running = client.submit(_explore_spec(
                [30.0, 45.0, 60.0], usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            queued = client.submit(_explore_spec([113.0, 127.0]))

            shutdown = threading.Thread(
                target=background.__exit__, args=(None, None, None))
            shutdown.start()
            # Shutdown cancels every live job before the gate opens.
            queue = background.app.queue
            deadline = time.monotonic() + 30.0
            while not queue.get(running["id"]).cancel_requested:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            _GATE.set()
            shutdown.join(timeout=60.0)
            assert not shutdown.is_alive()
        finally:
            _GATE.set()

        states = {job.id: job.to_dict() for job in background.app.queue.jobs()}
        assert states[queued["id"]]["state"] == "cancelled"
        assert states[queued["id"]]["progress"]["completed"] == 0
        assert states[running["id"]]["state"] == "cancelled"
        assert background.app.simulator.closed
        # The socket is gone: new clients cannot connect.
        with pytest.raises(OSError):
            background.client(timeout=2.0).healthz()


class TestServeSubprocess:
    def test_cli_daemon_end_to_end(self, tmp_path):
        """Boot ``repro serve`` for real: ready file, one job, SIGTERM."""
        ready = tmp_path / "ready.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--ready-file", str(ready)],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30.0
            while not ready.exists():
                assert process.poll() is None, process.communicate()[1]
                assert time.monotonic() < deadline, "ready file never came"
                time.sleep(0.05)
            address = json.loads(ready.read_text())
            client = ServeClient.from_url(address["url"], timeout=30.0)
            assert client.healthz()["status"] == "ok"
            job = client.submit(_run_spec(50.0))
            assert client.wait(job["id"], timeout=120.0)["state"] == "done"
            process.send_signal(signal.SIGTERM)
            stdout, _stderr = process.communicate(timeout=60.0)
            assert process.returncode == 0
            assert "repro serve listening on" in stdout
            assert "shutting down" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestWaitTimeout:
    def test_wait_raises_typed_timeout(self, gated_usecase):
        with BackgroundServer(workers=1) as background:
            client = background.client()
            job = client.submit(_explore_spec([30.0],
                                              usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            with pytest.raises(ServeTimeout):
                client.wait(job["id"], timeout=0.2, poll_s=0.05)
            _GATE.set()
            assert client.wait(job["id"], timeout=60.0)["state"] == "done"
