"""Async offload of cold-path work: one daemon thread, bounded queue.

The engine keeps its solve path free of disk traffic by pushing its
spill work — Gram block writes — onto an :class:`AsyncOffloader`.  The
queue is bounded: a producer that outruns the disk blocks briefly
instead of buffering without limit (backpressure, not amnesia).
Errors inside offloaded jobs never propagate into the engine; they are
counted and the last one kept for diagnostics — a failed spill degrades
to a future cache miss or an in-RAM retry, exactly like the
synchronous tiers treat unreadable entries.
"""

from __future__ import annotations

import queue
import threading
import warnings

#: Default bound on queued offload jobs.
DEFAULT_QUEUE_SIZE = 64

#: Errors tolerated silently before a RuntimeWarning is emitted: a
#: stray failed spill is routine (disk pressure, a chaos-injected
#: OSError), a steady stream means the spill tier is effectively off.
DEFAULT_WARN_AFTER = 8

_STOP = object()


class AsyncOffloader:
    """A single worker thread draining a bounded job queue.

    ``submit(fn, *args, **kwargs)`` enqueues a callable (blocking while
    the queue is full); :meth:`flush` waits until everything submitted
    so far has run and returns the cumulative error count (so callers
    at durability points can *see* silent spill failures); :meth:`close`
    flushes and stops the worker.  Once ``errors`` crosses
    ``warn_after`` a :class:`RuntimeWarning` is emitted (once).  Usable
    as a context manager.  Thread-safe.
    """

    def __init__(self, maxsize: int = DEFAULT_QUEUE_SIZE,
                 name: str = "offload",
                 warn_after: int = DEFAULT_WARN_AFTER) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        if warn_after < 1:
            raise ValueError("warn_after must be positive")
        self._q: queue.Queue = queue.Queue(maxsize=maxsize)
        self._pending = 0
        self._cond = threading.Condition()
        self._closed = False
        self.errors = 0
        self.last_error: BaseException | None = None
        self.completed = 0
        self.warn_after = warn_after
        self._warned = False
        self.name = name
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            job = self._q.get()
            if job is _STOP:
                return
            fn, args, kwargs = job
            try:
                fn(*args, **kwargs)
            except BaseException as exc:  # never kill the worker
                with self._cond:
                    self.errors += 1
                    self.last_error = exc
                    warn_now = (
                        self.errors >= self.warn_after and not self._warned
                    )
                    if warn_now:
                        self._warned = True
                if warn_now:
                    warnings.warn(
                        f"offloader {self.name!r} has dropped "
                        f"{self.errors} spill writes (last: "
                        f"{type(exc).__name__}: {exc}); the disk tier "
                        "is degrading to cache misses",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            finally:
                with self._cond:
                    self._pending -= 1
                    self.completed += 1
                    self._cond.notify_all()

    def submit(self, fn, *args, **kwargs) -> bool:
        """Enqueue ``fn(*args, **kwargs)``; False if already closed."""
        with self._cond:
            if self._closed:
                return False
            self._pending += 1
        try:
            self._q.put((fn, args, kwargs))
        except BaseException:
            with self._cond:
                self._pending -= 1
                self._cond.notify_all()
            raise
        return True

    @property
    def pending(self) -> int:
        with self._cond:
            return self._pending

    def _drain(self, timeout: float | None = None) -> bool:
        """Wait until every submitted job has run; False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._pending == 0, timeout=timeout
            )

    def flush(self, timeout: float | None = None) -> int:
        """Wait for every submitted job, then return the cumulative
        error count — 0 means every spill so far actually landed.
        (On timeout the count still reflects whatever has run.)"""
        self._drain(timeout=timeout)
        with self._cond:
            return self.errors

    def stats(self) -> dict:
        """JSON-friendly counters (surfaced via ``cache_stats()``)."""
        with self._cond:
            return {
                "pending": self._pending,
                "completed": self.completed,
                "errors": self.errors,
                "last_error": (
                    f"{type(self.last_error).__name__}: {self.last_error}"
                    if self.last_error is not None else None
                ),
            }

    def close(self, timeout: float | None = 10.0) -> bool:
        """Flush, then stop the worker thread.  Idempotent."""
        with self._cond:
            if self._closed:
                return True
            self._closed = True
        ok = self._drain(timeout=timeout)
        self._q.put(_STOP)
        self._thread.join(timeout=timeout)
        return ok and not self._thread.is_alive()

    def __enter__(self) -> "AsyncOffloader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
