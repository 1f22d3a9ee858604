"""Fault-tolerant tile execution: the engine's process worker pool.

A plain process pool dies with its workers: one OOM-killed child
breaks the pool and the whole Gram computation is lost.  This module
builds the pool on raw :mod:`multiprocessing` with a supervision loop
in the parent, so a worker death is an *event*, not a verdict:

* **crash recovery** — a dead worker's in-flight tile is re-queued
  (work stealing: any idle worker may pick it up) and the worker slot
  is respawned;
* **deadlines** — a tile running past ``tile_timeout_s`` gets its
  worker killed and is retried like a crash (hung-worker detection);
* **bounded retry with backoff** — each failure delays the tile's next
  dispatch by ``retry_backoff_s * 2**(failures-1)``;
* **poison quarantine** — a tile that keeps killing workers is, after
  ``max_tile_retries`` retries, quarantined: its pairs yield NaN block
  rows with a diagnostic instead of taking the job down (the engine
  keeps quarantined values out of every cache so a rerun recomputes
  them).

Queue topology matters here: each worker owns a private inbox *and* a
private outbox.  A worker SIGKILLed mid-``put`` can corrupt only its
own queue — with one shared results queue, a single death could
deadlock or poison every sibling's channel.  The parent never blocks
on a child: it sleeps in :func:`multiprocessing.connection.wait` until
an outbox turns readable or a worker exits, drains outboxes with
``get_nowait``, and treats anything unreadable as a crash of that
worker alone.

Determinism: a retried tile recomputes from the same inputs with the
same task body, so a run disturbed by worker kills produces a Gram
matrix bitwise identical to an undisturbed run — the property the
chaos suite (:mod:`repro.chaos`, ``benchmarks/bench_chaos.py``) gates.

Spill: with a block store root, the worker that solves a tile also
writes its result block, before it reports the tile.  The parent
hears of a tile only once its block is on disk or its write has
failed.  A worker killed after writing but before reporting leaves a
valid block, and the retry rewrites the same bytes (block keys and
contents are pure functions of the tile).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait
from typing import Iterator, Sequence

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .block_store import GramBlockStore, block_rows
from .executors import EngineAborted, default_workers, solve_tile, spill_block
from .tiles import Tile

#: Default retry budget per tile (initial attempt + this many retries).
DEFAULT_MAX_TILE_RETRIES = 2

#: Default base of the exponential retry backoff.
DEFAULT_RETRY_BACKOFF_S = 0.05

#: Longest the supervision loop waits for a worker event before it
#: rechecks deadlines, retry backoff and the abort event.
POLL_INTERVAL_S = 0.02


def _worker_main(worker_id, inbox, outbox, kernel, X, Y,
                 block_root) -> None:
    """Body of one supervised worker process.

    Messages in: ``(task_id, attempt, tile, block_key)`` or ``None``
    (shut down).  Messages out: ``(task_id, attempt, ok,
    rows_or_error_string, written)``.  On success the rows are the
    tile's block rows from :func:`~repro.engine.executors.solve_tile`,
    and ``written`` is the bytes
    :func:`~repro.engine.executors.spill_block` wrote under
    ``block_key`` in the store at ``block_root``, or None when nothing
    landed; a failed solve writes nothing.  Chaos hooks run at the top
    of each task so an injected kill looks exactly like a mid-tile
    crash from the parent's point of view (the result simply never
    arrives); the block store's own ``io-error``/``torn-block`` hooks
    hash the block key, so they fire on the same blocks here as in the
    parent.  Workers carry no structure cache or warm store: they are
    spawned per call, so nothing they kept would be read again.
    """
    from .. import chaos

    chaos.install_from_env()
    store = GramBlockStore(block_root) if block_root is not None else None
    while True:
        msg = inbox.get()
        if msg is None:
            return
        task_id, attempt, tile, block_key = msg
        plan = chaos.get_plan()
        if plan is not None:
            token = f"t{task_id}"
            plan.maybe_delay("worker", token, attempt)
            plan.maybe_kill(token, attempt)
        try:
            rows = solve_tile(kernel, X, Y, tile)
        except BaseException as exc:
            outbox.put((task_id, attempt, False,
                        f"{type(exc).__name__}: {exc}", None))
        else:
            written = spill_block(store, block_key, rows)
            outbox.put((task_id, attempt, True, rows, written))


@dataclass
class SupervisorStats:
    """What the supervision loop did, for Diagnostics and metrics."""

    dispatches: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    #: Tiles re-queued from a dead worker's in-flight slot (the
    #: work-stealing path, a subset of ``retries``).
    stolen_tiles: int = 0
    quarantined_tiles: int = 0
    quarantined_pairs: int = 0
    #: Per-quarantined-tile diagnostics: {task_id: [error, ...]}.
    quarantine_errors: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


class _Slot:
    """One worker slot: the live process and its private queues."""

    __slots__ = ("process", "inbox", "outbox", "task_id", "attempt",
                 "deadline")

    def __init__(self, process, inbox, outbox) -> None:
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.task_id: int | None = None  # in-flight task, if any
        self.attempt = 0
        self.deadline: float | None = None


class SupervisedPool:
    """Run tiles on supervised worker processes; survive their deaths.

    Parameters mirror the engine's fault-tolerance knobs:
    ``max_tile_retries`` bounds retries per tile before quarantine,
    ``tile_timeout_s`` (None = no deadline) caps one attempt's wall
    time, ``retry_backoff_s`` seeds the exponential backoff, ``abort``
    is an external :class:`threading.Event` that cancels the run with
    :class:`~repro.engine.executors.EngineAborted`, and ``chaos_spec``
    is exported as :data:`repro.chaos.ENV_VAR` around worker spawns so
    children inject the same deterministic faults under any
    multiprocessing start method.  ``block_root`` is the root of a
    :class:`~repro.engine.block_store.GramBlockStore`, and
    ``block_keys[k]`` the key of ``tiles[k]``'s block: a worker writes
    each tile it solves there before reporting it.

    :meth:`run` yields ``(tile, rows, quarantined, written)`` in
    completion order, each only after every idle worker holds its next
    tile, so workers never wait on the engine.  ``written`` is the
    bytes of the tile's block the worker wrote, or None when nothing
    landed (no store, a failed write, or a quarantined tile, which is
    never written).  ``stats`` carries the final
    :class:`SupervisorStats`.  Each tile runs the batched or per-pair
    body its plan calls for (:func:`~repro.engine.executors.solve_tile`).
    """

    def __init__(
        self,
        kernel,
        X,
        Y,
        tiles: Sequence[Tile],
        max_workers: int | None = None,
        max_tile_retries: int = DEFAULT_MAX_TILE_RETRIES,
        tile_timeout_s: float | None = None,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        abort=None,
        chaos_spec: str | None = None,
        block_root: str | None = None,
        block_keys: Sequence[str | None] | None = None,
    ) -> None:
        if max_tile_retries < 0:
            raise ValueError("max_tile_retries must be >= 0")
        if tile_timeout_s is not None and tile_timeout_s <= 0:
            raise ValueError("tile_timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.kernel = kernel
        self.X = list(X)
        self.Y = list(Y) if Y is not X else self.X
        self.tiles = list(tiles)
        self.max_workers = max_workers
        self.max_tile_retries = max_tile_retries
        self.tile_timeout_s = tile_timeout_s
        self.retry_backoff_s = retry_backoff_s
        self.abort = abort
        self.chaos_spec = chaos_spec
        self.block_root = block_root
        self.block_keys = (
            list(block_keys) if block_keys is not None
            else [None] * len(self.tiles)
        )
        self.stats = SupervisorStats()

    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        n = self.max_workers or default_workers()
        return max(1, min(n, len(self.tiles) or 1))

    def _counter(self, name: str, help: str):
        return get_registry().counter(name, help=help)

    def _spawn(self, ctx, worker_id: int) -> _Slot:
        inbox = ctx.Queue()
        outbox = ctx.Queue()
        process = ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, outbox, self.kernel, self.X, self.Y,
                  self.block_root),
            name=f"gram-supervised-{worker_id}",
            daemon=True,
        )
        process.start()
        return _Slot(process, inbox, outbox)

    # ------------------------------------------------------------------

    def run(self) -> Iterator[tuple[Tile, np.ndarray, bool, int | None]]:
        """Supervision loop; see the class docstring for semantics."""
        tracer = get_tracer()
        n_tasks = len(self.tiles)
        if n_tasks == 0:
            return
        # Tiles arrive largest-first; the ready deque preserves that
        # order so dispatch stays approximately LPT.
        ready: list[int] = list(range(n_tasks))
        failures = [0] * n_tasks
        eligible_at = [0.0] * n_tasks  # monotonic time gate (backoff)
        errors: dict[int, list[str]] = {}
        finished = [False] * n_tasks
        n_done = 0

        ctx = multiprocessing.get_context()
        prev_env = os.environ.get("REPRO_CHAOS")
        if self.chaos_spec is not None:
            os.environ["REPRO_CHAOS"] = self.chaos_spec
        slots: list[_Slot] = []
        try:
            slots = [self._spawn(ctx, k) for k in range(self.workers)]

            def fail(task_id: int, attempt: int, why: str,
                     stolen: bool = False) -> bool:
                """Record one failed attempt; True if now quarantined."""
                if finished[task_id] or attempt != failures[task_id]:
                    return False  # stale report from a superseded attempt
                failures[task_id] += 1
                errors.setdefault(task_id, []).append(why)
                if failures[task_id] > self.max_tile_retries:
                    return True
                self.stats.retries += 1
                if stolen:
                    self.stats.stolen_tiles += 1
                self._counter(
                    "engine_fault_retries_total",
                    "supervised tiles re-dispatched after a failure",
                ).inc()
                if tracer.enabled:
                    with tracer.span("supervisor.retry", tile=task_id,
                                     attempt=failures[task_id], why=why):
                        pass
                eligible_at[task_id] = time.monotonic() + (
                    self.retry_backoff_s * 2 ** (failures[task_id] - 1)
                )
                ready.append(task_id)
                return False

            def respawn(k: int, why: str) -> None:
                slot = slots[k]
                self.stats.respawns += 1
                self._counter(
                    "engine_fault_respawns_total",
                    "supervised workers replaced after death or hang",
                ).inc()
                if tracer.enabled:
                    with tracer.span("supervisor.respawn", worker=k,
                                     why=why):
                        pass
                self._close_slot(slot)
                slots[k] = self._spawn(ctx, k)

            while n_done < n_tasks:
                if self.abort is not None and self.abort.is_set():
                    raise EngineAborted(
                        "supervised run aborted (engine closed)"
                    )
                quarantine_now: list[int] = []
                finished_now: list[tuple] = []  # what run() yields
                progressed = False

                # 1. Drain every worker's outbox (never block on one).
                for slot in slots:
                    while True:
                        try:
                            msg = slot.outbox.get_nowait()
                        except queue.Empty:
                            break
                        except (EOFError, OSError):
                            break  # queue torn by a death; reaped below
                        task_id, attempt, ok, payload, written = msg
                        if slot.task_id == task_id:
                            slot.task_id = None
                            slot.deadline = None
                        if finished[task_id] or attempt != failures[task_id]:
                            continue  # stale duplicate: first result won
                        if ok:
                            finished[task_id] = True
                            n_done += 1
                            progressed = True
                            finished_now.append(
                                (self.tiles[task_id], payload, False,
                                 written)
                            )
                        elif fail(task_id, attempt, payload):
                            quarantine_now.append(task_id)

                # 2. Reap dead workers: steal their in-flight tile back
                #    onto the queue and respawn the slot.
                for k, slot in enumerate(slots):
                    if slot.process.is_alive():
                        continue
                    self.stats.worker_deaths += 1
                    task_id = slot.task_id
                    if task_id is not None and not finished[task_id]:
                        why = (
                            f"worker died (exitcode "
                            f"{slot.process.exitcode})"
                        )
                        if fail(task_id, slot.attempt, why, stolen=True):
                            quarantine_now.append(task_id)
                    slot.task_id = None
                    respawn(k, "death")
                    progressed = True

                # 3. Deadlines: kill and replace hung workers.
                if self.tile_timeout_s is not None:
                    now = time.monotonic()
                    for k, slot in enumerate(slots):
                        if slot.deadline is None or now < slot.deadline:
                            continue
                        task_id, attempt = slot.task_id, slot.attempt
                        slot.task_id = None
                        slot.deadline = None
                        self.stats.timeouts += 1
                        self._counter(
                            "engine_fault_timeouts_total",
                            "supervised tile attempts past their deadline",
                        ).inc()
                        why = (
                            f"tile exceeded deadline of "
                            f"{self.tile_timeout_s:g}s"
                        )
                        if task_id is not None and fail(
                            task_id, attempt, why
                        ):
                            quarantine_now.append(task_id)
                        respawn(k, "timeout")
                        progressed = True

                # 4. Quarantine: poison tiles degrade to NaN block rows
                #    with a diagnostic instead of job death.
                for task_id in quarantine_now:
                    if finished[task_id]:
                        continue
                    finished[task_id] = True
                    n_done += 1
                    progressed = True
                    tile = self.tiles[task_id]
                    self.stats.quarantined_tiles += 1
                    self.stats.quarantined_pairs += len(tile.pairs)
                    self.stats.quarantine_errors[task_id] = errors.get(
                        task_id, []
                    )
                    self._counter(
                        "engine_fault_quarantined_tiles_total",
                        "tiles quarantined after exhausting retries",
                    ).inc()
                    if tracer.enabled:
                        with tracer.span(
                            "supervisor.quarantine", tile=task_id,
                            n_pairs=len(tile.pairs),
                            failures=failures[task_id],
                        ):
                            pass
                    rows = block_rows(tile.ij, np.nan, 0, False, np.inf)
                    finished_now.append((tile, rows, True, None))

                # 5. Dispatch ready tiles (backoff-gated) to idle slots.
                now = time.monotonic()
                idle = [s for s in slots if s.task_id is None]
                if idle and ready:
                    held: list[int] = []
                    for slot in idle:
                        task_id = None
                        while ready:
                            cand = ready.pop(0)
                            if finished[cand]:
                                continue
                            if eligible_at[cand] > now:
                                held.append(cand)
                                continue
                            task_id = cand
                            break
                        if task_id is None:
                            break
                        slot.task_id = task_id
                        slot.attempt = failures[task_id]
                        slot.deadline = (
                            now + self.tile_timeout_s
                            if self.tile_timeout_s is not None else None
                        )
                        self.stats.dispatches += 1
                        slot.inbox.put((
                            task_id, failures[task_id], self.tiles[task_id],
                            self.block_keys[task_id],
                        ))
                        progressed = True
                    ready[0:0] = held  # keep backoff-held tiles in order

                # 6. Hand this pass's tiles to the engine while the
                #    workers solve their next ones; with nothing to do,
                #    sleep until a result lands or a worker dies.
                yield from finished_now
                if not progressed:
                    wait(
                        [s.outbox._reader for s in slots]
                        + [s.process.sentinel for s in slots],
                        timeout=POLL_INTERVAL_S,
                    )
        finally:
            if self.chaos_spec is not None:
                if prev_env is None:
                    os.environ.pop("REPRO_CHAOS", None)
                else:
                    os.environ["REPRO_CHAOS"] = prev_env
            for slot in slots:
                self._close_slot(slot)

    @staticmethod
    def _close_slot(slot: _Slot) -> None:
        """Tear one worker down without ever blocking the parent."""
        try:
            slot.inbox.put_nowait(None)
        except (queue.Full, OSError, ValueError):
            pass
        if slot.process.is_alive():
            slot.process.join(timeout=0.2)
        if slot.process.is_alive():
            slot.process.terminate()
            slot.process.join(timeout=1.0)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=1.0)
        for q in (slot.inbox, slot.outbox):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
