"""The ``pearl-sim serve`` endpoint: coalescing, caching, backpressure.

Each test runs a real :class:`SweepServer` on an OS-assigned port with
its event loop on a background thread, and talks to it over real
sockets through :class:`ServeClient` — the same path CI's service smoke
uses.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.config import PearlConfig, PowerScalingConfig, SimulationConfig
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    execute_job,
    pair_spec,
    pearl_job,
    trace_job,
)
from repro.experiments.runner import experiment_pairs
from repro.experiments.service.client import ServeClient, ServeError
from repro.experiments.service.server import SweepServer
from repro.experiments.service.spec_codec import spec_to_doc

from .test_canonicalization import MALFORMED_DOCS, malformed_doc


@pytest.fixture
def tiny_sim_config() -> PearlConfig:
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_000),
        power_scaling=PowerScalingConfig(reservation_window=200),
    )


class _LiveServer:
    """A served SweepServer plus the thread its event loop runs on."""

    def __init__(self, server: SweepServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def __enter__(self) -> "_LiveServer":
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=60)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    @property
    def client(self) -> ServeClient:
        return ServeClient(self.server.host, self.server.port)


@pytest.fixture
def live(tmp_path):
    cache = ResultCache(directory=tmp_path / "cache")
    with _LiveServer(SweepServer(cache=cache, port=0, jobs=1)) as live:
        yield live


def _fingerprint(result):
    return (
        result.kind,
        result.stats.to_dict() if result.stats is not None else None,
        dict(result.state_residency),
        result.mean_laser_power_w,
        result.laser_stall_cycles,
        list(result.ml_predictions),
        list(result.ml_labels),
        dict(result.extras),
    )


class TestEndpoints:
    def test_healthz_and_stats(self, live):
        assert live.client.healthz()
        stats = live.client.stats()
        assert stats["submissions"] == 0
        assert stats["inflight"] == 0
        assert stats["store"]["entries"] == 0

    def test_bad_spec_is_400(self, live):
        with pytest.raises(ServeError) as err:
            live.client.submit({"format": 1, "spec": {"kind": "nonsense"}})
        assert err.value.status == 400

    def test_malformed_pearl_specs_are_400_before_the_pool(
        self, live, tiny_sim_config
    ):
        """An unknown policy, a pearl spec without a trace and an
        off-ladder static state are client errors: 400 at decode,
        nothing executed, nothing cached, no server error counted."""
        pair = experiment_pairs(quick=True)[0]
        good = spec_to_doc(pearl_job(tiny_sim_config, pair_spec(pair, 3)))
        for field, value in (
            ("power_policy", "warp"),
            ("trace", None),
            ("static_state", 7),
        ):
            doc = dict(good, **{field: value})
            with pytest.raises(ServeError) as err:
                live.client.submit(doc)
            assert err.value.status == 400, field
        stats = live.client.stats()
        assert stats["bad_requests"] == 3
        assert stats["errors"] == 0
        assert stats["submissions"] == 0
        assert stats["executions"] == 0
        assert stats["store"]["entries"] == 0

    def test_mistyped_and_invalid_trace_specs_are_400(
        self, live, tiny_sim_config
    ):
        """Wrong JSON types and unknown trace kinds or benchmarks are
        400s counted under ``bad_requests``: nothing is submitted,
        nothing fails in the pool and nothing reaches the store."""
        for case, mutate, _ in MALFORMED_DOCS:
            with pytest.raises(ServeError) as err:
                live.client.submit(malformed_doc(tiny_sim_config, mutate))
            assert err.value.status == 400, case
        stats = live.client.stats()
        assert stats["bad_requests"] == len(MALFORMED_DOCS)
        assert stats["errors"] == 0
        assert stats["submissions"] == 0
        assert stats["executions"] == 0
        assert stats["store"]["entries"] == 0

    def test_unknown_route_is_404(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=30
        )
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_unparseable_body_is_400(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=30
        )
        try:
            conn.request("POST", "/simulate", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "request_bytes,status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /nope HTTP/1.1\r\n\r\n", 404),
            (
                b"POST /simulate HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
                b"{not json",
                400,
            ),
            (
                b"POST /simulate HTTP/1.1\r\n"
                b"Content-Length: 999999999\r\n\r\n",
                413,
            ),
        ],
        ids=[
            "malformed-request-line",
            "unknown-route",
            "unparseable-body",
            "oversized-body",
        ],
    )
    def test_client_errors_count_as_bad_requests(
        self, live, request_bytes, status
    ):
        """Every 4xx is the client's fault: it is counted under
        ``bad_requests``, never under the server's ``errors``."""
        with socket.create_connection(
            (live.server.host, live.server.port), timeout=30
        ) as sock:
            sock.sendall(request_bytes)
            status_line = sock.makefile("rb").readline().decode("latin-1")
        assert status_line.split()[1] == str(status)
        stats = live.client.stats()
        assert stats["bad_requests"] == 1
        assert stats["errors"] == 0
        assert stats["submissions"] == 0


class TestCoalescing:
    def test_burst_of_identical_specs_executes_once(
        self, live, tiny_sim_config
    ):
        pair = experiment_pairs(quick=True)[0]
        doc = spec_to_doc(trace_job(tiny_sim_config, pair_spec(pair, 5)))
        n = 10
        streams = live.client.burst(doc, count=n)

        stats = live.client.stats()
        assert stats["submissions"] == n
        assert stats["executions"] == 1
        # Everyone else either joined the in-flight execution or read
        # the entry it committed — nobody recomputed.
        assert stats["coalesced"] + stats["cache_hits"] == n - 1

        # Every waiter streamed the complete, identical result.
        finals = [events[-1] for events in streams]
        assert all(event["event"] == "result" for event in finals)
        docs = {json.dumps(e["result"], sort_keys=True) for e in finals}
        assert len(docs) == 1

    def test_served_result_is_bit_identical_to_direct_run(
        self, live, tiny_sim_config
    ):
        pair = experiment_pairs(quick=True)[0]
        spec = pearl_job(tiny_sim_config, pair_spec(pair, 3), seed=3)
        served = live.client.submit_result(spec_to_doc(spec))
        direct = execute_job(spec)
        assert _fingerprint(served) == _fingerprint(direct)

    def test_resubmit_after_completion_hits_cache(
        self, live, tiny_sim_config
    ):
        pair = experiment_pairs(quick=True)[0]
        doc = spec_to_doc(trace_job(tiny_sim_config, pair_spec(pair, 7)))
        first = live.client.submit(doc)
        second = live.client.submit(doc)
        assert first[-1]["cached"] is False
        assert second[-1]["cached"] is True
        stats = live.client.stats()
        assert stats["executions"] == 1
        assert stats["cache_hits"] == 1
        assert first[-1]["result"] == second[-1]["result"]


class TestBackpressure:
    def test_distinct_key_beyond_max_pending_is_503(
        self, tmp_path, tiny_sim_config
    ):
        cache = ResultCache(directory=tmp_path / "cache")
        server = SweepServer(cache=cache, port=0, jobs=1, max_pending=1)
        pair = experiment_pairs(quick=True)[0]
        slow = PearlConfig(
            simulation=SimulationConfig(
                warmup_cycles=100, measure_cycles=8_000
            ),
            power_scaling=PowerScalingConfig(reservation_window=200),
        )
        slow_doc = spec_to_doc(pearl_job(slow, pair_spec(pair, 1), seed=1))
        fast_doc = spec_to_doc(
            trace_job(tiny_sim_config, pair_spec(pair, 2), seed=2)
        )
        with _LiveServer(server) as live:
            slow_events: list = []
            submitter = threading.Thread(
                target=lambda: slow_events.append(
                    live.client.submit(slow_doc)
                ),
                daemon=True,
            )
            submitter.start()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if live.client.stats()["inflight"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("slow submission never became in-flight")

            # A *different* key while the slot is taken: refused.
            with pytest.raises(ServeError) as err:
                live.client.submit(fast_doc)
            assert err.value.status == 503

            # The same key coalesces instead — always admitted.
            joined = live.client.submit(slow_doc)
            assert joined[0]["coalesced"] is True
            assert joined[-1]["event"] == "result"

            submitter.join(timeout=120)
            assert slow_events and slow_events[0][-1]["event"] == "result"
            stats = live.client.stats()
            assert stats["rejected"] == 1
            assert stats["executions"] == 1
