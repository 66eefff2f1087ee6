"""A threaded HTTP front end serving one :class:`~repro.core.database.NepalDB`.

``nepal serve`` (or :class:`NepalServer` embedded in a test) exposes the
database over plain HTTP/JSON so many clients can read concurrently while
the single-writer commit gate serializes mutations:

* ``GET  /health``          — liveness + concurrency gauges;
* ``GET  /healthz``         — bare liveness probe (always 200 while up);
* ``GET  /readyz``          — readiness probe: 200 when the node should
  receive routed traffic, 503 while a replica bootstraps or lags past
  ``lag_threshold`` and on fenced nodes;
* ``GET  /stats``           — the full metrics snapshot (``db.stats()``);
* ``GET  /metrics``         — Prometheus text exposition of the metrics
  registry (``text/plain; version=0.0.4``);
* ``GET  /slowlog``         — retained slow-query entries + sampler stats;
* ``POST /query``           — ``{"query": <NPQL>, "snapshot": <id>?}``;
  add ``?trace=1`` (or ``"trace": true`` in the body) to execute under a
  fresh :class:`~repro.stats.tracing.TraceContext` and receive the span
  tree as a ``"trace"`` key in the response;
* ``POST /write``           — ``{"op": "insert_node" | "insert_edge" |
  "connect" | "update" | "delete", ...}``;
* ``POST /snapshot``        — open a pinned :class:`ReadSnapshot`, returns
  ``{"id", "as_of", "data_version"}``;
* ``POST /snapshot/close``  — ``{"id": <id>}``;
* ``GET  /replication/status|wal|snapshot`` and ``POST
  /replication/promote|repoint|fence`` — the log-shipping protocol and
  failover controls (see :mod:`repro.replication`).  Writes on a replica
  answer ``307`` with a ``Location`` pointing at the primary; writes on a
  node fenced by a higher epoch answer ``409``.  Every response carries
  ``X-Nepal-Epoch``.

Concurrency model: a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
runs the request handlers (``workers`` threads); admission control counts
requests in flight and refuses anything past ``workers + queue_depth``
with an immediate ``503`` + ``Retry-After`` instead of queueing unboundedly
(HTTP/1.0, one request per connection, so in-flight requests and open
connections coincide).  Every query request that is not bound to a held
snapshot executes against a fresh ephemeral pin with a per-request
deadline — the cooperative-cancellation deadline of
:class:`~repro.core.concurrency.SnapshotStore` — mapped to ``504`` when
overrun.  The default deadline comes from the database's configured
:class:`~repro.core.resilience.ResiliencePolicy` when one is set.

Request accounting lands in the owning ``MetricsRegistry`` under
``server.*`` (requests, queries, writes, rejected, deadline_exceeded,
errors) next to the ``concurrency.*`` counters of the commit gate.
Request bodies are bounded before a byte is read: a malformed or
negative ``Content-Length`` answers ``400`` (``server.rejected.bad_length``)
and one over ``max_body_bytes`` answers ``413``
(``server.rejected.body_too_large``); after a 413 the server drops a
bounded part of the body so the close does not reset the connection
before the client reads the status.

Observability: every response carries an ``X-Nepal-Trace-Id`` header —
the id of the request's :class:`TraceContext` when one was recorded
(``?trace=1`` or slow-query sampling), a fresh id from the same sequence
otherwise — so clients can correlate responses with the slow-query log.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Mapping
from urllib.parse import parse_qs

from repro.core.concurrency import ReadSnapshot
from repro.core.database import NepalDB
from repro.errors import (
    FencedError,
    NepalError,
    NotPrimaryError,
    QueryDeadlineExceeded,
)
from repro.model.elements import ElementRecord
from repro.model.pathway import Pathway
from repro.query.results import QueryResult
from repro.stats.tracing import TraceContext, next_trace_id

_REJECT_RESPONSE = (
    b"HTTP/1.0 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Retry-After: 1\r\n"
    b"Content-Length: 45\r\n"
    b"\r\n"
    b'{"error": "server saturated, retry shortly"}\n'
)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for :class:`NepalServer`.

    ``workers`` handler threads serve requests; up to ``queue_depth``
    additional requests may wait for a free thread before admission
    control starts refusing with 503.  ``deadline`` bounds each request's
    reads (``None`` defers to the database's resilience policy deadline,
    and runs unbounded when there is none).  ``port=0`` binds an
    ephemeral port — read the actual one from ``server.address``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 8
    queue_depth: int = 16
    deadline: float | None = None
    #: Readiness threshold: a replica lagging more than this many records
    #: behind its primary answers 503 on ``GET /readyz``.
    lag_threshold: int = 1000
    #: Largest request body accepted; longer ones answer 413 before the
    #: body is read.
    max_body_bytes: int = 1 << 20


#: After a 413 the server reads and drops at most this much of the body,
#: for at most this long, so that closing the socket with the body still
#: unread does not reset the connection before the client reads the 413.
DISCARD_BYTES = 4 << 20
DISCARD_SECONDS = 2.0


class BodyRejected(Exception):
    """A request body refused on its ``Content-Length`` alone.

    ``unread`` is the number of body bytes the client announced and may
    still be sending (0 when the length itself was unusable).
    """

    def __init__(self, status: int, kind: str, message: str, unread: int = 0):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.unread = unread


@dataclass
class RequestContext:
    """Per-request observability state handed to every route handler.

    ``params`` holds the parsed query string (last value wins);
    ``trace_id`` is stamped onto the ``X-Nepal-Trace-Id`` response header —
    handlers that record a :class:`TraceContext` overwrite the default
    fresh id with the trace's own.  ``headers`` carries the request
    headers (the replication layer reads ``X-Nepal-Epoch`` from them).
    """

    params: Mapping[str, str]
    trace_id: str
    headers: Mapping[str, str] = field(default_factory=dict)

    def epoch_claim(self) -> int | None:
        """The epoch the caller presented, if any (fencing input)."""
        raw = self.headers.get("X-Nepal-Epoch")
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            return None

    def flag(self, name: str, payload: Mapping[str, Any] | None = None) -> bool:
        """Is boolean option *name* set via query string or JSON body?"""
        raw = self.params.get(name)
        if raw is not None:
            return raw.lower() not in ("", "0", "false", "no")
        if payload is not None:
            return bool(payload.get(name))
        return False


@dataclass(frozen=True)
class RawResponse:
    """A handler return value that controls status, body and headers.

    Route handlers normally return a ``dict`` (JSON, 200) or ``str``
    (text, 200); the replication endpoints need binary bodies
    (``/replication/wal``), non-200 statuses (``/readyz``) and extra
    headers (``Location``, ``X-Nepal-Wal-Size``), which this carries.
    """

    status: int = 200
    body: bytes = b""
    content_type: str = "application/octet-stream"
    headers: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, status: int, payload: Mapping[str, Any], headers: Mapping[str, str] | None = None
    ) -> "RawResponse":
        return cls(
            status=status,
            body=(json.dumps(payload) + "\n").encode("utf-8"),
            content_type="application/json",
            headers=dict(headers or {}),
        )


def _json_value(value: Any) -> Any:
    """A JSON-representable rendering of one result cell."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, Pathway):
        return value.render()
    if isinstance(value, ElementRecord):
        return {
            "uid": value.uid,
            "class": value.cls.name,
            "fields": {name: _json_value(v) for name, v in value.fields.items()},
            "period": [
                _json_value(value.period.start),
                _json_value(value.period.end),
            ],
        }
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return str(value)


def _result_payload(result: QueryResult) -> dict[str, Any]:
    return {
        "columns": list(result.columns),
        "rows": [
            {
                "values": [_json_value(v) for v in row.values],
                "bindings": {
                    name: pathway.render()
                    for name, pathway in (row.bindings or {}).items()
                },
            }
            for row in result.rows
        ],
        "warnings": list(result.warnings),
    }


class _PooledHTTPServer(HTTPServer):
    """HTTPServer whose requests run on the app's bounded worker pool."""

    # Bind even if the previous listener is in TIME_WAIT.
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler: type, app: "NepalServer"):
        super().__init__(address, handler)
        self.app = app

    def process_request(self, request, client_address) -> None:
        app = self.app
        if not app._admit():
            try:
                request.sendall(_REJECT_RESPONSE)
            except OSError:
                pass
            self.shutdown_request(request)
            return
        app._pool.submit(self._work, request, client_address)

    def _work(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:  # pragma: no cover - handler errors are logged
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self.app._finish()


class _Handler(BaseHTTPRequestHandler):
    # One request per connection keeps admission control exact: an open
    # connection IS an in-flight request.
    protocol_version = "HTTP/1.0"

    @property
    def app(self) -> "NepalServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the metrics registry is the access log

    # -- plumbing ----------------------------------------------------------

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        ctx: "RequestContext",
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Nepal-Trace-Id", ctx.trace_id)
        manager = self.app.replication
        if manager is not None:
            # Every response advertises the node's epoch, so any client
            # that ever talked to the new primary carries proof that
            # fences a revived stale one.
            self.send_header("X-Nepal-Epoch", str(manager.epoch))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Mapping[str, Any], ctx: "RequestContext") -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self._send_body(status, body, "application/json", ctx)

    def _send_text(self, status: int, text: str, ctx: "RequestContext") -> None:
        self._send_body(
            status,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            ctx,
        )

    def _read_body(self) -> dict[str, Any]:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block the worker until the client closes.
            raise BodyRejected(400, "bad_length", f"bad Content-Length {raw_length!r}")
        limit = self.app.config.max_body_bytes
        if length > limit:
            raise BodyRejected(
                413, "body_too_large", f"body of {length} bytes exceeds {limit}", length
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise NepalError("request body must be a JSON object")
        return payload

    def _discard_body(self, length: int) -> None:
        """Drop up to ``DISCARD_BYTES`` of a rejected body after the response.

        The write side is shut first, so a client that sent only headers
        sees end-of-stream at once and closes; the read then ends early.
        """
        self.wfile.flush()
        deadline = time.monotonic() + DISCARD_SECONDS
        remaining = min(length, DISCARD_BYTES)
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while remaining > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self.connection.settimeout(left)
                chunk = self.rfile.read1(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:
            pass  # the client went away or timed out: nothing left to save

    def _dispatch(self, method: str) -> None:
        app = self.app
        app._event("requests")
        path, _, query_string = self.path.partition("?")
        params = {key: values[-1] for key, values in parse_qs(query_string).items()}
        ctx = RequestContext(
            params=params, trace_id=next_trace_id(), headers=dict(self.headers)
        )
        try:
            handler = app.routes.get((method, path))
            if handler is None:
                self._send_json(404, {"error": f"no route {method} {path}"}, ctx)
                return
            payload = self._read_body() if method == "POST" else {}
            response = handler(payload, ctx)
            if isinstance(response, RawResponse):
                self._send_body(
                    response.status, response.body, response.content_type,
                    ctx, response.headers,
                )
            elif isinstance(response, str):
                self._send_text(200, response, ctx)
            else:
                self._send_json(200, response, ctx)
        except BodyRejected as error:
            app._event(f"rejected.{error.kind}")
            self._send_json(error.status, {"error": str(error)}, ctx)
            if error.unread:
                self._discard_body(error.unread)
        except QueryDeadlineExceeded as error:
            app._event("deadline_exceeded")
            self._send_json(504, {"error": str(error)}, ctx)
        except NotPrimaryError as error:
            # A write reached a replica: answer with a redirect so even a
            # cluster-unaware client can follow it to the primary.
            app._event("not_primary")
            headers = (
                {"Location": f"http://{error.primary}{self.path}"}
                if error.primary
                else {}
            )
            self._send_body(
                307,
                (json.dumps({"error": str(error), "primary": error.primary}) + "\n")
                .encode("utf-8"),
                "application/json",
                ctx,
                headers,
            )
        except FencedError as error:
            app._event("fenced_write_rejected")
            self._send_json(
                409, {"error": str(error), "fenced_by": error.epoch}, ctx
            )
        except (NepalError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            app._event("errors")
            self._send_json(400, {"error": f"{type(error).__name__}: {error}"}, ctx)
        except Exception as error:  # pragma: no cover - defensive
            app._event("errors")
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"}, ctx)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


class NepalServer:
    """Serve *db* over HTTP with bounded concurrency.

    >>> server = NepalServer(db, ServerConfig(port=0))
    >>> server.start()
    >>> host, port = server.address
    >>> ...
    >>> server.stop()
    """

    def __init__(
        self,
        db: NepalDB,
        config: ServerConfig | None = None,
        replication: "object | None" = None,
    ):
        from repro.replication.manager import ReplicationManager

        self.db = db
        self.config = config or ServerConfig()
        self.metrics = db.metrics
        self.replication: ReplicationManager = (
            replication or ReplicationManager(db)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="nepal-http"
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._capacity = self.config.workers + self.config.queue_depth
        self._snapshots: dict[int, ReadSnapshot] = {}
        self._snapshot_ids = itertools.count(1)
        self._snapshot_lock = threading.Lock()
        self._httpd: _PooledHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self.routes = {
            ("GET", "/health"): self._route_health,
            ("GET", "/healthz"): self._route_healthz,
            ("GET", "/readyz"): self._route_readyz,
            ("GET", "/stats"): self._route_stats,
            ("GET", "/metrics"): self._route_metrics,
            ("GET", "/slowlog"): self._route_slowlog,
            ("POST", "/query"): self._route_query,
            ("POST", "/write"): self._route_write,
            ("POST", "/snapshot"): self._route_snapshot_open,
            ("POST", "/snapshot/close"): self._route_snapshot_close,
            ("GET", "/replication/status"): self._route_replication_status,
            ("GET", "/replication/wal"): self._route_replication_wal,
            ("GET", "/replication/snapshot"): self._route_replication_snapshot,
            ("POST", "/replication/promote"): self._route_replication_promote,
            ("POST", "/replication/repoint"): self._route_replication_repoint,
            ("POST", "/replication/fence"): self._route_replication_fence,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "NepalServer":
        if self._httpd is not None:
            raise NepalError("server already started")
        self._httpd = _PooledHTTPServer(
            (self.config.host, self.config.port), _Handler, self
        )
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="nepal-http-accept",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        if self._httpd is None:
            raise NepalError("server is not started")
        return self._httpd.server_address[:2]

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
            self._serve_thread = None
        self._pool.shutdown(wait=True)
        with self._snapshot_lock:
            leftover = list(self._snapshots.values())
            self._snapshots.clear()
        for snapshot in leftover:
            snapshot.close()

    def graceful_stop(self) -> None:
        """Drain and shut down in order, leaving a clean journal behind.

        The SIGTERM path of ``nepal serve``: stop accepting connections,
        stop background replication (the puller thread), wait for every
        in-flight request to finish on the worker pool, close any
        snapshots clients left open, then flush and close the WAL.  After
        this the process can exit without losing an acknowledged write —
        and a replica's journal ends exactly at its last commit boundary.
        """
        self._event("graceful_stop")
        self.replication.shutdown()
        self.stop()  # shutdown() waits out in-flight handlers, then closes snapshots
        self.db.close()

    def __enter__(self) -> "NepalServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- admission control -------------------------------------------------

    def _admit(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self._capacity:
                self._event("rejected")
                return False
            self._inflight += 1
            return True

    def _finish(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _event(self, kind: str) -> None:
        self.metrics.event(f"server.{kind}")

    def _deadline(self) -> float | None:
        if self.config.deadline is not None:
            return self.config.deadline
        policy = self.db._resilience
        return policy.deadline if policy is not None else None

    # -- routes ------------------------------------------------------------

    def _route_health(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        return {
            "status": "ok",
            "inflight": self.inflight,
            "capacity": self._capacity,
            "workers": self.config.workers,
            "open_snapshots": self.db.write_gate.open_pins(),
            "commits": self.db.write_gate.commits,
            "data_version": self.db.store.data_version,
        }

    def _route_healthz(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        """Liveness: the process is up and handling requests.  Always 200
        — orchestration restarts on liveness failure, so this must not
        flap with replication lag (that is :meth:`_route_readyz`)."""
        return {"status": "alive"}

    def _route_readyz(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> RawResponse:
        """Readiness: should this node receive routed traffic?

        A primary is ready once recovery completed (construction is
        synchronous, so: always).  A replica is ready when its stream is
        live and record lag is under ``config.lag_threshold``.  A fenced
        node is never ready.  Not-ready answers 503, the conventional
        probe contract.
        """
        ready, detail = self.replication.readiness(self.config.lag_threshold)
        return RawResponse.json(200 if ready else 503, {"ready": ready, **detail})

    def _route_stats(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        return {"stats": self.db.stats()}

    def _route_metrics(self, payload: Mapping[str, Any], ctx: RequestContext) -> str:
        """Prometheus text exposition of the database's metrics registry."""
        return self.metrics.to_prometheus()

    def _route_slowlog(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        log = self.db.slow_query_log
        return {
            "enabled": log is not None,
            "stats": log.stats() if log is not None else None,
            "entries": self.db.slow_queries(),
        }

    def _route_query(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise NepalError("POST /query requires a non-empty 'query' string")
        self._event("queries")
        trace: TraceContext | None = None
        if ctx.flag("trace", payload):
            trace = TraceContext(label=text)
            ctx.trace_id = trace.trace_id
            self._event("traced_queries")
        snapshot_id = payload.get("snapshot")
        if snapshot_id is not None:
            snapshot = self._held_snapshot(snapshot_id)
            result = snapshot.query(text, trace=trace)
        elif self.db.store.supports_snapshots:
            with self.db.snapshot(deadline=self._deadline()) as snapshot:
                result = snapshot.query(text, trace=trace)
        else:
            # Backend without version chains (e.g. relational): read live.
            result = self.db.query(text, trace=trace)
        response = _result_payload(result)
        if trace is not None:
            response["trace"] = trace.to_dict()
        return response

    def _route_write(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        # Replication gate first: replicas redirect (307), fenced nodes
        # refuse (409), and a client presenting a higher epoch fences a
        # stale primary before its write can diverge the history.
        self.replication.check_writable(ctx.epoch_claim())
        op = payload.get("op")
        self._event("writes")
        db = self.db
        if op == "insert_node":
            uid = db.insert_node(payload["class"], payload.get("fields"))
            return {"uid": uid}
        if op == "insert_edge":
            uid = db.insert_edge(
                payload["class"],
                int(payload["source"]),
                int(payload["target"]),
                payload.get("fields"),
            )
            return {"uid": uid}
        if op == "connect":
            uids = db.connect(
                payload["class"],
                int(payload["left"]),
                int(payload["right"]),
                payload.get("fields"),
            )
            return {"uids": list(uids)}
        if op == "update":
            db.update(int(payload["uid"]), payload["changes"])
            return {"updated": int(payload["uid"])}
        if op == "delete":
            db.delete(int(payload["uid"]))
            return {"deleted": int(payload["uid"])}
        raise NepalError(
            f"unknown write op {op!r} (expected insert_node, insert_edge, "
            f"connect, update or delete)"
        )

    def _route_snapshot_open(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        deadline = payload.get("deadline", self._deadline())
        snapshot = self.db.snapshot(deadline=deadline)
        with self._snapshot_lock:
            snapshot_id = next(self._snapshot_ids)
            self._snapshots[snapshot_id] = snapshot
        return {
            "id": snapshot_id,
            "as_of": snapshot.as_of,
            "data_version": snapshot.data_version,
        }

    def _route_snapshot_close(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        snapshot_id = payload.get("id")
        with self._snapshot_lock:
            snapshot = self._snapshots.pop(snapshot_id, None)
        if snapshot is None:
            raise NepalError(f"unknown snapshot id {snapshot_id!r}")
        snapshot.close()
        return {"closed": snapshot_id}

    # -- replication routes ------------------------------------------------

    def _require_durable(self):
        durable = self.db.durable_store()
        if durable is None:
            from repro.errors import ReplicationError

            raise ReplicationError(
                "this node has no durable store to replicate "
                "(start it with --data-dir)"
            )
        return durable

    def _route_replication_status(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        return self.replication.status()

    def _route_replication_wal(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> RawResponse:
        """Serve committed journal bytes from ``?offset=`` (log shipping).

        The chunk may end mid-frame; the replica's decoder buffers the
        split.  An offset beyond the journal answers ``416`` — the
        caller's position predates a checkpoint truncation and it must
        re-base or resync (see the puller's truncation handling).
        """
        from repro.errors import StorageError

        durable = self._require_durable()
        offset = int(ctx.params.get("offset", 0))
        limit = int(ctx.params.get("limit", 1 << 20))
        try:
            chunk, committed = durable.read_wal(offset, limit)
        except StorageError as error:
            return RawResponse.json(
                416, {"error": str(error), "wal_bytes": durable.wal_bytes}
            )
        self.metrics.event("replication.wal_served")
        return RawResponse(
            status=200,
            body=bytes(chunk),
            content_type="application/octet-stream",
            headers={
                "X-Nepal-Wal-Size": str(committed),
                "X-Nepal-Last-Lsn": str(durable.last_lsn),
            },
        )

    def _route_replication_snapshot(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> RawResponse:
        """A consistent bootstrap snapshot (compacted history + manifest)."""
        durable = self._require_durable()
        data, last_lsn, _epoch = durable.snapshot_stream()
        return RawResponse(
            status=200,
            body=data,
            content_type="application/octet-stream",
            headers={"X-Nepal-Last-Lsn": str(last_lsn)},
        )

    def _route_replication_promote(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        status = self.replication.promote()
        return {"promoted": True, **status}

    def _route_replication_repoint(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        primary = payload.get("primary")
        if not isinstance(primary, str) or not primary:
            raise NepalError(
                "POST /replication/repoint requires a 'primary' host:port"
            )
        self.replication.repoint(primary)
        return self.replication.status()

    def _route_replication_fence(
        self, payload: Mapping[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        epoch = payload.get("epoch")
        if not isinstance(epoch, int):
            raise NepalError(
                "POST /replication/fence requires an integer 'epoch'"
            )
        self.replication.fence(epoch)
        return self.replication.status()

    def _held_snapshot(self, snapshot_id: Any) -> ReadSnapshot:
        with self._snapshot_lock:
            snapshot = self._snapshots.get(snapshot_id)
        if snapshot is None:
            raise NepalError(f"unknown snapshot id {snapshot_id!r}")
        return snapshot
