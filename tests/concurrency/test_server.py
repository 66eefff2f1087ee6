"""The HTTP front end: serving, snapshots over the wire, backpressure."""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.database import NepalDB
from repro.server import NepalClient, NepalServer, ServerConfig, ServerError
from repro.storage.chaos import FaultPlan
from tests.concurrency.conftest import small_topology

VM_PATH = "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()"


def wait_until(condition, message: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.01)


@pytest.fixture
def served():
    db = NepalDB()
    handles = small_topology(db)
    with NepalServer(db, ServerConfig(port=0, workers=4, queue_depth=8)) as server:
        yield db, handles, server, NepalClient(*server.address)
    db.close()


class TestRoutes:
    def test_health(self, served):
        db, _, server, client = served
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["capacity"] == 12
        assert payload["workers"] == 4
        assert payload["open_snapshots"] == 0
        assert payload["data_version"] == db.store.data_version

    def test_query_roundtrip(self, served):
        _, _, _, client = served
        payload = client.query(VM_PATH)
        assert payload["columns"] == ["P"]
        assert len(payload["rows"]) == 12
        row = payload["rows"][0]
        assert "VM" in row["values"][0]  # rendered pathway text

    def test_write_roundtrip(self, served):
        db, handles, _, client = served
        uid = client.insert_node("VM", {"name": "over-http"})
        assert isinstance(uid, int)
        client.request(
            "POST", "/write",
            {"op": "insert_edge", "class": "OnServer",
             "source": uid, "target": handles["hosts"][0]},
        )
        assert len(client.query(VM_PATH)["rows"]) == 13
        client.request("POST", "/write", {"op": "update", "uid": uid,
                                          "changes": {"status": "Red"}})
        assert db.store.class_count("VM") == 13
        client.request("POST", "/write", {"op": "delete", "uid": uid})
        assert len(client.query(VM_PATH)["rows"]) == 12

    def test_stats_served(self, served):
        _, _, _, client = served
        client.query(VM_PATH)
        stats = client.stats()
        assert "events" in stats
        assert stats["events"].get("server.queries", 0) >= 1

    def test_error_mapping(self, served):
        _, _, _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/no-such-route")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/query", {"query": ""})
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/write", {"op": "explode"})
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.query("Retrieve X From NONSENSE")
        assert excinfo.value.status == 400


def raw_post(address, content_length: str, body: bytes = b"") -> int:
    """POST claiming *content_length*, then *body*; the response status."""
    with socket.create_connection(address, timeout=5.0) as sock:
        # A small send buffer keeps a large body in flight while the
        # server answers, as over a real network.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
        sock.sendall(
            f"POST /query HTTP/1.0\r\nContent-Length: {content_length}\r\n\r\n".encode()
            + body
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return int(data.split(b" ", 2)[1])


class TestBodyLimits:
    """Content-Length is checked before the body is read."""

    @pytest.fixture
    def limited(self):
        db = NepalDB()
        small_topology(db)
        with NepalServer(db, ServerConfig(port=0, workers=2, max_body_bytes=256)) as server:
            yield db, server
        db.close()

    def test_negative_length_is_400(self, limited):
        db, server = limited
        # Reading -1 bytes would block until the client closes; the 5 s
        # socket timeout in raw_post turns that into a failure.
        assert raw_post(server.address, "-1") == 400
        assert db.metrics.event_count("server.rejected.bad_length") == 1

    def test_malformed_length_is_400(self, limited):
        db, server = limited
        assert raw_post(server.address, "twelve") == 400
        assert db.metrics.event_count("server.rejected.bad_length") == 1

    def test_oversized_body_is_413(self, limited):
        db, server = limited
        assert raw_post(server.address, "257") == 413
        assert db.metrics.event_count("server.rejected.body_too_large") == 1
        # A body within the limit is still served.
        client = NepalClient(*server.address)
        assert len(client.query(VM_PATH)["rows"]) == 12
        assert db.metrics.event_count("server.rejected.body_too_large") == 1

    def test_oversized_body_sent_in_full_still_reads_413(self, limited):
        db, server = limited
        # A client that sends the whole body before reading must get the
        # 413, not a reset from a close over unread bytes.
        body = b"x" * (1 << 20)
        for _ in range(3):
            assert raw_post(server.address, str(len(body)), body) == 413
        assert db.metrics.event_count("server.rejected.body_too_large") == 3


class TestSnapshotsOverHTTP:
    def test_held_snapshot_freezes_view(self, served):
        db, _, _, client = served
        opened = client.open_snapshot()
        snapshot_id = opened["id"]
        assert opened["data_version"] == db.store.data_version
        assert client.health()["open_snapshots"] == 1

        before = client.query(VM_PATH, snapshot=snapshot_id)
        uid = client.insert_node("VM", {"name": "after-pin"})
        client.request(
            "POST", "/write",
            {"op": "insert_edge", "class": "OnServer", "source": uid, "target": 1},
        )
        pinned = client.query(VM_PATH, snapshot=snapshot_id)
        live = client.query(VM_PATH)
        assert pinned == before
        assert len(live["rows"]) == len(before["rows"]) + 1

        client.close_snapshot(snapshot_id)
        assert client.health()["open_snapshots"] == 0
        with pytest.raises(ServerError) as excinfo:
            client.query(VM_PATH, snapshot=snapshot_id)
        assert excinfo.value.status == 400

    def test_unknown_snapshot_rejected(self, served):
        _, _, _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.query(VM_PATH, snapshot=999)
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/snapshot/close", {"id": 999})
        assert excinfo.value.status == 400

    def test_server_stop_closes_held_snapshots(self):
        db = NepalDB()
        small_topology(db)
        server = NepalServer(db, ServerConfig(port=0, workers=2, queue_depth=2))
        server.start()
        client = NepalClient(*server.address)
        client.open_snapshot()
        assert db.write_gate.open_pins() == 1
        server.stop()
        assert db.write_gate.open_pins() == 0
        db.close()


class TestBackpressure:
    def test_admission_control_returns_503(self):
        """capacity 1: an idle open connection holds the only slot, so the
        next request is refused immediately with 503 + Retry-After."""
        db = NepalDB()
        small_topology(db)
        config = ServerConfig(port=0, workers=1, queue_depth=0)
        with NepalServer(db, config) as server:
            client = NepalClient(*server.address, timeout=5.0)
            assert client.health()["capacity"] == 1
            # The health request's server-side bookkeeping finishes after
            # the client sees the response; wait for the slot to free or
            # the squatter below may itself be the one rejected.
            wait_until(lambda: server.inflight == 0, "health slot never drained")

            squatter = socket.create_connection(server.address, timeout=5.0)
            try:
                # The accept loop admits the connection asynchronously;
                # poll until the slot is taken.
                wait_until(lambda: server.inflight >= 1, "squatter never admitted")
                with pytest.raises(ServerError) as excinfo:
                    client.health()
                assert excinfo.value.status == 503
            finally:
                squatter.close()

            # Slot drains once the squatter disconnects.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    payload = client.health()
                    break
                except ServerError as error:
                    assert error.status == 503
                    assert time.monotonic() < deadline, "slot never drained"
                    time.sleep(0.02)
            assert payload["status"] == "ok"
            assert db.metrics.event_count("server.rejected") >= 1
        db.close()

    def test_deadline_maps_to_504(self):
        """Injected per-read latency + a tiny request deadline: the pinned
        read path must give up cooperatively and surface 504."""
        db = NepalDB()
        small_topology(db)
        db.inject_faults(FaultPlan(seed=0, latency=0.05))
        config = ServerConfig(port=0, workers=2, queue_depth=2, deadline=0.02)
        with NepalServer(db, config) as server:
            client = NepalClient(*server.address, timeout=10.0)
            with pytest.raises(ServerError) as excinfo:
                client.query(VM_PATH)
            assert excinfo.value.status == 504
        assert db.metrics.event_count("server.deadline_exceeded") >= 1
        db.close()

    def test_concurrent_clients_all_serve(self, served):
        import threading

        _, _, server, client = served
        errors: list[BaseException] = []
        counts: list[int] = []

        def hit() -> None:
            try:
                for _ in range(5):
                    counts.append(len(client.query(VM_PATH)["rows"]))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        workers = [threading.Thread(target=hit) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert not errors, errors[0]
        assert counts == [12] * 30
        assert db_requests(server) >= 30


def db_requests(server: NepalServer) -> int:
    return server.metrics.event_count("server.requests")
