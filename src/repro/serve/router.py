"""Scale-out front for :class:`~repro.serve.server.KernelServer`.

One process per core stops paying Python's parallelism tax, but it
needs a front door.  :class:`Router` is that door: a stdlib asyncio
HTTP proxy that spreads traffic over N worker replicas (each a plain
``KernelServer`` sharing the registry's mmap'd artifacts), keeps a
live health view of them, and sheds load *before* it reaches a queue.

Pieces:

* :class:`TokenBucket` — admission control.  The per-replica bounded
  queue answers 503 once latency is already damaged; the bucket
  answers 429 at the front door while the system is still healthy.
  ``/healthz`` and ``/metrics`` bypass it, so operators and load
  balancers keep their view of an overloaded deployment.
* :class:`ReplicaState` — one backend's address, health flag, and
  in-flight count (selection is least-inflight among healthy).
* :class:`Router` — the proxy: a background prober re-checks every
  replica's ``/healthz`` on an interval (so crashed workers leave the
  rotation and restarted ones rejoin it); a request hitting a dead
  replica is retried on the next-best one, except non-idempotent
  ``/update`` requests that were already fully sent, which answer 502
  rather than risk a double apply.
* :class:`WorkerPool` — spawns and supervises the N worker processes
  for the CLI's ``repro serve --serve-workers N`` path, with per-worker
  RSS/PSS readers so the shared-artifact claim is measurable.

The router serves its own ``/healthz`` (aggregate: 200 while at least
one replica is healthy) and ``/metrics`` (router counters; the JSON
form embeds each live replica's own snapshot so one scrape shows the
whole deployment).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import uuid

from ..obs.metrics import MetricRegistry
from .protocol import STATUS_TEXT, ProtocolError

#: Routes safe to replay on another replica after a failure.  /update
#: mutates model state, so it is only retried when the request never
#: finished reaching a backend.
IDEMPOTENT_ROUTES = frozenset(
    {"/predict", "/similarity", "/topk", "/healthz", "/metrics"}
)

MAX_HEADERS = 100


class TokenBucket:
    """Classic token-bucket rate limiter on the monotonic clock.

    ``rate_rps`` tokens accrue per second up to a ``burst`` ceiling;
    each admitted request spends one.  Thread-safe, so the same class
    guards the asyncio router and the (threaded-test-driven) server.
    A ``rate_rps`` of 0 or less disables limiting (always allows).
    """

    def __init__(self, rate_rps: float, burst: float | None = None) -> None:
        self.rate_rps = float(rate_rps)
        self.burst = float(burst) if burst is not None else max(
            1.0, self.rate_rps
        )
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def allow(self, cost: float = 1.0) -> bool:
        if self.rate_rps <= 0:
            return True
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate_rps
            )
            self._stamp = now
            if self._tokens >= cost:
                self._tokens -= cost
                return True
            return False


class ReplicaState:
    """One backend worker as the router sees it.

    Health transitions have **hysteresis**: ``unhealthy_after``
    consecutive failures (probe or forward) eject a replica from the
    rotation, and ``healthy_after`` consecutive successful probes
    re-admit it.  One dropped packet therefore never flaps a healthy
    replica out, and a replica that is crash-looping does not bounce
    back into the rotation off a single lucky probe.
    ``marked_unhealthy`` / ``readmitted`` count the transitions, so a
    flapping backend is visible in ``/healthz`` long after it settles.
    """

    #: Default hysteresis thresholds (K failures out, M successes in).
    UNHEALTHY_AFTER = 3
    HEALTHY_AFTER = 2

    def __init__(self, host: str, port: int,
                 unhealthy_after: int | None = None,
                 healthy_after: int | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.unhealthy_after = (
            self.UNHEALTHY_AFTER if unhealthy_after is None
            else int(unhealthy_after)
        )
        self.healthy_after = (
            self.HEALTHY_AFTER if healthy_after is None
            else int(healthy_after)
        )
        if self.unhealthy_after < 1 or self.healthy_after < 1:
            raise ValueError("hysteresis thresholds must be >= 1")
        self.healthy = True
        self.inflight = 0
        self.failures = 0   # consecutive, reset on success
        self.successes = 0  # consecutive, reset on failure
        self.marked_unhealthy = 0
        self.readmitted = 0
        self.last_error: str | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def mark_ok(self) -> bool:
        """Record one success; True if this re-admitted the replica."""
        self.failures = 0
        self.successes += 1
        self.last_error = None
        if not self.healthy and self.successes >= self.healthy_after:
            self.healthy = True
            self.readmitted += 1
            return True
        return False

    def mark_failed(self, exc: BaseException) -> bool:
        """Record one failure; True if this ejected the replica."""
        self.successes = 0
        self.failures += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        if self.healthy and self.failures >= self.unhealthy_after:
            self.healthy = False
            self.marked_unhealthy += 1
            return True
        return False

    def describe(self) -> dict:
        return {
            "address": self.address,
            "healthy": self.healthy,
            "inflight": self.inflight,
            "consecutive_failures": self.failures,
            "consecutive_successes": self.successes,
            "marked_unhealthy": self.marked_unhealthy,
            "readmitted": self.readmitted,
            "last_error": self.last_error,
        }


class _ProxyFailure(Exception):
    """A forwarding attempt died; ``sent`` says whether the full
    request reached the backend (governs /update retry safety)."""

    def __init__(self, cause: BaseException, sent: bool) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.sent = sent


class Router:
    """Health-aware HTTP front for N ``KernelServer`` replicas.

    Duck-compatible with :class:`~repro.serve.server.ServerThread`
    (async ``start``/``stop`` plus a resolved ``port``), so tests and
    the CLI run it exactly like a single server.

    Parameters
    ----------
    replicas:
        ``[(host, port), ...]`` of the backend workers.
    host / port:
        Router bind address (``port=0`` picks a free port).
    rate_rps / burst:
        Token-bucket admission control; 0 disables.  ``/healthz`` and
        ``/metrics`` are always admitted.
    probe_interval_s:
        Cadence of the background health prober.
    request_timeout_s:
        Per-attempt ceiling on one backend exchange.
    max_retries:
        Extra replicas tried after a failed attempt (idempotent
        routes; an /update that was fully sent answers 502 instead).
    unhealthy_after / healthy_after:
        Health hysteresis: consecutive failures before a replica
        leaves the rotation, and consecutive successful probes before
        it rejoins (defaults 3 and 2) — see :class:`ReplicaState`.
    """

    def __init__(
        self,
        replicas: list[tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        rate_rps: float = 0.0,
        burst: float | None = None,
        probe_interval_s: float = 1.0,
        request_timeout_s: float = 60.0,
        max_retries: int = 2,
        max_body_bytes: int = 8 << 20,
        unhealthy_after: int | None = None,
        healthy_after: int | None = None,
    ) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        self.replicas = [
            ReplicaState(h, p, unhealthy_after=unhealthy_after,
                         healthy_after=healthy_after)
            for h, p in replicas
        ]
        self.host = host
        self.port = port
        self.bucket = TokenBucket(rate_rps, burst)
        self.probe_interval_s = probe_interval_s
        self.request_timeout_s = request_timeout_s
        self.max_retries = max_retries
        self.max_body_bytes = max_body_bytes
        self.registry = MetricRegistry()
        r = self.registry
        self._m_requests = r.counter(
            "router_requests_total", "requests through the router",
            label="route")
        self._m_status = r.counter(
            "router_responses_total", "router responses by status",
            label="status")
        self._m_retries = r.counter(
            "router_retries_total", "forward attempts replayed on "
            "another replica after a failure")
        self._m_rate_limited = r.counter(
            "router_rate_limited_total", "requests shed by the token bucket")
        self._m_no_replicas = r.counter(
            "router_no_replica_errors_total",
            "requests that found no healthy replica")
        self._m_healthy = r.gauge(
            "router_replica_healthy", "1 when the replica passes probes",
            label="replica")
        self._m_ejected = r.counter(
            "router_replica_marked_unhealthy_total",
            "replicas ejected after consecutive failures (hysteresis)",
            label="replica")
        self._m_readmitted = r.counter(
            "router_replica_readmitted_total",
            "replicas re-admitted after consecutive healthy probes",
            label="replica")
        self._m_inflight = r.gauge(
            "router_replica_inflight", "requests in flight per replica",
            label="replica")
        self._m_latency = r.histogram(
            "router_request_latency_seconds",
            (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
             0.25, 0.5, 1.0, 2.5, 5.0, 10.0),
            "end-to-end router latency")
        self._server: asyncio.base_events.Server | None = None
        self._prober: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self.started_unix = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        await self._probe_all()  # initial health view before serving
        self._prober = asyncio.get_running_loop().create_task(
            self._probe_loop()
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._prober is not None:
            self._prober.cancel()
            try:
                await self._prober
            except asyncio.CancelledError:
                pass
            self._prober = None
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # health probing + replica selection
    # ------------------------------------------------------------------

    def _note_transition(self, replica: ReplicaState, ejected: bool,
                         readmitted: bool) -> None:
        if ejected:
            self._m_ejected.inc(label_value=replica.address)
        if readmitted:
            self._m_readmitted.inc(label_value=replica.address)
        self._m_healthy.set(
            1.0 if replica.healthy else 0.0, label_value=replica.address
        )

    async def _probe_one(self, replica: ReplicaState) -> None:
        try:
            status, _, _ = await asyncio.wait_for(
                self._exchange(replica, "GET", "/healthz", b"", None),
                timeout=min(5.0, self.request_timeout_s),
            )
            if status == 200:
                self._note_transition(replica, False, replica.mark_ok())
            else:
                self._note_transition(replica, replica.mark_failed(
                    RuntimeError(f"healthz answered {status}")
                ), False)
        except (_ProxyFailure, asyncio.TimeoutError) as exc:
            self._note_transition(replica, replica.mark_failed(
                exc.cause if isinstance(exc, _ProxyFailure) else exc
            ), False)

    async def _probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe_one(r) for r in self.replicas)
        )

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            await self._probe_all()

    def _pick(self, exclude: set[ReplicaState]) -> ReplicaState | None:
        """Least-inflight healthy replica not yet tried this request."""
        candidates = [
            r for r in self.replicas if r.healthy and r not in exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.inflight)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------

    async def _exchange(
        self,
        replica: ReplicaState,
        method: str,
        path: str,
        body: bytes,
        request_id: str | None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, str]:
        """One backend round trip on a fresh connection.

        Raises :class:`_ProxyFailure` carrying whether the request was
        fully written before the failure.
        """
        sent = False
        writer = None
        try:
            reader, writer = await asyncio.open_connection(
                replica.host, replica.port
            )
            extra = "".join(
                f"{k}: {v}\r\n" for k, v in (headers or {}).items()
            )
            rid = f"X-Request-Id: {request_id}\r\n" if request_id else ""
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {replica.address}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{rid}{extra}"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            sent = True
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line {status_line!r}"
                )
            status = int(parts[1])
            resp_headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                resp_headers[name.strip().lower()] = value.strip()
            length = int(resp_headers.get("content-length", "0"))
            payload = await reader.readexactly(length) if length else b""
            ctype = resp_headers.get("content-type", "application/json")
            return status, payload, ctype
        except (OSError, asyncio.IncompleteReadError, ConnectionError,
                ValueError) as exc:
            raise _ProxyFailure(exc, sent) from exc
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    async def _forward(
        self,
        method: str,
        path: str,
        body: bytes,
        request_id: str | None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, str]:
        """Route one request to a healthy replica, retrying on death."""
        tried: set[ReplicaState] = set()
        last_error = "no healthy replica"
        for attempt in range(1 + self.max_retries):
            replica = self._pick(tried)
            if replica is None:
                break
            tried.add(replica)
            if attempt:
                self._m_retries.inc()
            replica.inflight += 1
            self._m_inflight.set(
                float(replica.inflight), label_value=replica.address
            )
            try:
                status, payload, ctype = await asyncio.wait_for(
                    self._exchange(
                        replica, method, path, body, request_id, headers
                    ),
                    timeout=self.request_timeout_s,
                )
                self._note_transition(replica, False, replica.mark_ok())
                return status, payload, ctype
            except (_ProxyFailure, asyncio.TimeoutError) as exc:
                sent = isinstance(exc, _ProxyFailure) and exc.sent
                if isinstance(exc, asyncio.TimeoutError):
                    sent = True  # the backend may still be working on it
                    last_error = "backend timed out"
                else:
                    last_error = str(exc)
                self._note_transition(replica, replica.mark_failed(
                    exc.cause if isinstance(exc, _ProxyFailure) else exc
                ), False)
                if sent and path not in IDEMPOTENT_ROUTES:
                    # The mutation may have been applied; replaying it
                    # elsewhere could double-apply. Tell the client.
                    return 502, ProtocolError(
                        502, "replica_failed",
                        f"replica {replica.address} failed after the "
                        f"update was sent ({last_error}); state unknown, "
                        "not retried",
                    ).body(), "application/json"
            finally:
                replica.inflight -= 1
                self._m_inflight.set(
                    float(replica.inflight), label_value=replica.address
                )
        if not tried:
            self._m_no_replicas.inc()
            return 503, ProtocolError(
                503, "no_replicas",
                "no healthy replica available; the deployment is down "
                "or still starting",
            ).body(), "application/json"
        return 502, ProtocolError(
            502, "replica_failed",
            f"all {len(tried)} attempted replicas failed "
            f"(last: {last_error})",
        ).body(), "application/json"

    # ------------------------------------------------------------------
    # local routes
    # ------------------------------------------------------------------

    def _health_payload(self) -> tuple[int, bytes]:
        healthy = [r for r in self.replicas if r.healthy]
        doc = {
            "status": "ok" if healthy else "unavailable",
            "role": "router",
            "replicas_total": len(self.replicas),
            "replicas_healthy": len(healthy),
            "replicas": [r.describe() for r in self.replicas],
        }
        return (200 if healthy else 503), json.dumps(doc).encode()

    async def _metrics_payload(self, accept: str) -> tuple[int, bytes, str]:
        if "text/plain" in accept or "openmetrics" in accept:
            return 200, self.registry.to_prometheus().encode(), (
                "text/plain; version=0.0.4; charset=utf-8"
            )

        async def fetch(replica: ReplicaState):
            try:
                status, payload, _ = await asyncio.wait_for(
                    self._exchange(replica, "GET", "/metrics", b"", None),
                    timeout=5.0,
                )
                if status != 200:
                    return {"error": f"metrics answered {status}"}
                return json.loads(payload)
            except (_ProxyFailure, asyncio.TimeoutError,
                    json.JSONDecodeError) as exc:
                return {"error": f"{type(exc).__name__}: {exc}"}

        snapshots = await asyncio.gather(
            *(fetch(r) for r in self.replicas)
        )
        doc = {
            "role": "router",
            "uptime_s": time.time() - self.started_unix,
            "router": self.registry.snapshot(),
            "replicas": {
                r.address: {"state": r.describe(), "metrics": snap}
                for r, snap in zip(self.replicas, snapshots)
            },
        }
        return 200, json.dumps(doc).encode(), "application/json"

    # ------------------------------------------------------------------
    # HTTP front (same hand-rolled framing as KernelServer)
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except ValueError:
                    await self._respond(writer, 400, ProtocolError(
                        400, "bad_request", "request line too long"
                    ).body(), keep_alive=False)
                    break
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(writer, 400, ProtocolError(
                        400, "bad_request", "malformed request line"
                    ).body(), keep_alive=False)
                    break
                method, path, _version = parts
                headers: dict[str, str] = {}
                try:
                    n_header_lines = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        n_header_lines += 1
                        if n_header_lines > MAX_HEADERS:
                            raise ValueError("too many headers")
                        name, _, value = line.decode("latin-1").partition(":")
                        headers[name.strip().lower()] = value.strip()
                except ValueError:
                    await self._respond(writer, 400, ProtocolError(
                        400, "bad_request", "headers too long or too many"
                    ).body(), keep_alive=False)
                    break
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    await self._respond(writer, 400, ProtocolError(
                        400, "bad_request", "bad Content-Length"
                    ).body(), keep_alive=False)
                    break
                if length > self.max_body_bytes:
                    await self._respond(writer, 413, ProtocolError(
                        413, "body_too_large",
                        f"body of {length} bytes refused at the router"
                    ).body(), keep_alive=False)
                    break
                body = await reader.readexactly(length) if length else b""
                request_id = (
                    headers.get("x-request-id")
                    or f"req-{uuid.uuid4().hex[:16]}"
                )
                t0 = time.perf_counter()
                status, payload, ctype = await self._route(
                    method, path, body, headers, request_id
                )
                route_key = path if path in IDEMPOTENT_ROUTES | {
                    "/update"
                } else "<other>"
                self._m_requests.inc(label_value=route_key)
                self._m_status.inc(label_value=str(status))
                self._m_latency.observe(time.perf_counter() - t0)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(
                    writer, status, payload, keep_alive,
                    content_type=ctype, request_id=request_id,
                )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str],
        request_id: str,
    ) -> tuple[int, bytes, str]:
        json_t = "application/json"
        # Operator routes are answered locally and never rate-limited:
        # an overloaded deployment must stay observable.
        if path == "/healthz" and method == "GET":
            status, payload = self._health_payload()
            return status, payload, json_t
        if path == "/metrics" and method == "GET":
            return await self._metrics_payload(headers.get("accept", ""))
        if not self.bucket.allow():
            self._m_rate_limited.inc()
            return 429, ProtocolError(
                429, "rate_limited",
                "request rate exceeds the configured admission limit; "
                "back off and retry",
            ).body(), json_t
        fwd_headers = {}
        if "accept" in headers:
            fwd_headers["Accept"] = headers["accept"]
        return await self._forward(
            method, path, body, request_id, fwd_headers
        )

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        keep_alive: bool,
        content_type: str = "application/json",
        request_id: str | None = None,
    ) -> None:
        rid = f"X-Request-Id: {request_id}\r\n" if request_id else ""
        head = (
            f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{rid}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a currently-free TCP port."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind((host, 0))
        return s.getsockname()[1]


class WorkerPool:
    """Spawn and supervise N serving worker processes.

    Each worker is a full ``repro serve`` process built from
    ``worker_argv(host, port)``; the pool allocates the ports, injects
    ``PYTHONPATH`` so ``python -m repro.cli`` resolves in the children,
    waits for every ``/healthz`` to come up, and tears the processes
    down on exit.  ``rss_bytes``/``pss_bytes`` read ``/proc`` so the
    shared-mmap claim (N workers, ~1 copy of the artifacts) can be
    checked empirically — PSS divides shared pages among their users,
    which is exactly the accounting that shows the sharing.
    """

    def __init__(
        self,
        n_workers: int,
        worker_argv,
        host: str = "127.0.0.1",
        env: dict | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.worker_argv = worker_argv
        self.host = host
        self.env = env
        self.ports: list[int] = []
        self.procs: list[subprocess.Popen] = []

    @property
    def replicas(self) -> list[tuple[str, int]]:
        return [(self.host, p) for p in self.ports]

    def _child_env(self) -> dict:
        env = dict(os.environ if self.env is None else self.env)
        # Children must import repro from the same tree as the parent.
        import repro

        pkg_parent = os.path.dirname(os.path.dirname(repro.__file__))
        parts = env.get("PYTHONPATH", "").split(os.pathsep)
        if pkg_parent not in parts:
            env["PYTHONPATH"] = os.pathsep.join(
                [pkg_parent] + [p for p in parts if p]
            )
        return env

    def start(self) -> "WorkerPool":
        self.ports = [free_port(self.host) for _ in range(self.n_workers)]
        env = self._child_env()
        for port in self.ports:
            argv = self.worker_argv(self.host, port)
            self.procs.append(subprocess.Popen(argv, env=env))
        return self

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every worker answers ``/healthz`` (or die)."""
        deadline = time.monotonic() + timeout
        pending = set(self.ports)
        while pending:
            for proc, port in zip(self.procs, self.ports):
                if port in pending and proc.poll() is not None:
                    raise RuntimeError(
                        f"worker on port {port} exited with "
                        f"{proc.returncode} before becoming ready"
                    )
            for port in sorted(pending):
                try:
                    with urllib.request.urlopen(
                        f"http://{self.host}:{port}/healthz", timeout=2
                    ) as resp:
                        if resp.status == 200:
                            pending.discard(port)
                except (urllib.error.URLError, OSError, ConnectionError):
                    pass
            if pending:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"workers on ports {sorted(pending)} never became "
                        f"ready within {timeout}s"
                    )
                time.sleep(0.25)

    # -- memory accounting (linux /proc; best-effort elsewhere) --------

    @staticmethod
    def _proc_field(path: str, field: str) -> int | None:
        try:
            with open(path, "r", encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith(field + ":"):
                        return int(line.split()[1]) * 1024  # kB -> bytes
        except OSError:
            return None
        return None

    def rss_bytes(self) -> list[int | None]:
        """Per-worker resident set size (shared pages counted fully
        in *every* worker — an overestimate under mmap sharing)."""
        return [
            self._proc_field(f"/proc/{p.pid}/status", "VmRSS")
            for p in self.procs
        ]

    def pss_bytes(self) -> list[int | None]:
        """Per-worker proportional set size (shared pages split among
        sharers — the honest number for the sublinearity claim)."""
        return [
            self._proc_field(f"/proc/{p.pid}/smaps_rollup", "Pss")
            for p in self.procs
        ]

    def terminate(self, timeout: float = 10.0) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self.procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self.procs = []
        self.ports = []

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()


def default_worker_argv(serve_args: list[str]):
    """Build the ``worker_argv`` callable for ``repro serve`` workers:
    the given CLI args plus the pool-assigned host/port."""

    def build(host: str, port: int) -> list[str]:
        return [
            sys.executable, "-m", "repro.cli", "serve",
            *serve_args, "--host", host, "--port", str(port),
        ]

    return build
