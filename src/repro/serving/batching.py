"""Micro-batching: concurrent callers share one engine call.

Requests land on a bounded queue.  A free worker takes the request it
woke on plus everything already queued behind it, up to
``max_batch_size``, and hands them to one ``batch_fn`` call — for the
prediction engine, :meth:`~repro.serving.engine.PredictionEngine.predict_many`,
which answers the batch under one engine-lock acquisition and one table
read.  Workers never sleep on a timer: a lone request on an idle batcher
runs at once, and batches form only from requests that arrive while the
previous batch computes.

Correctness contract:

* **ordering / identity** — each request's result is routed back on its
  own future; batching can never hand caller A caller B's rows.
* **bitwise parity** — ``batch_fn`` must be deterministic per request
  (the engine's eval-mode forwards are), so a batched response is
  bitwise identical to the unbatched one.
* **fault isolation** — a request that fails (including via the
  ``serving:request`` fault point, see :mod:`repro.testing.faults`)
  errors *its own* future; the rest of the batch completes and the
  worker loop survives to serve the next batch.
* **admission control** — the queue is *bounded* (``max_queue``).  A
  submit against a full queue raises :class:`Overloaded` immediately
  instead of growing the queue without bound: overload sheds the excess
  (HTTP maps it to 429) while the accepted requests keep their latency,
  rather than every request's p99 collapsing together.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.serving.metrics import ServingMetrics
from repro.testing.faults import fault_point


class BatcherClosed(ReproError):
    """A request was submitted to a batcher that has been shut down."""


class Overloaded(ReproError):
    """A request was shed: the serving queue is at capacity.

    Raised by :meth:`MicroBatcher.submit` instead of enqueueing past
    the bound.  HTTP maps it to ``429 Too Many Requests`` with a
    ``Retry-After`` hint of :attr:`retry_after_s` (rounded up to whole
    seconds).
    """

    def __init__(self, message: str, retry_after_s: float = 0.05):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


@dataclass
class _Pending:
    """One enqueued request: payload + routing info."""

    key: int  # arrival sequence number (also the fault-point key)
    payload: object
    future: Future = field(default_factory=Future)
    submitted: float = field(default_factory=time.monotonic)


_SHUTDOWN = object()


class MicroBatcher:
    """Queue requests; execute them in shared batches on worker threads.

    Parameters
    ----------
    batch_fn:
        ``batch_fn(payloads) -> results`` executing a whole batch in one
        call; must return exactly one result per payload, in order.
    max_batch_size:
        Largest batch handed to ``batch_fn``.
    workers:
        Worker threads draining the queue.  One worker maximizes
        coalescing; more help when ``batch_fn`` releases the GIL.
    max_queue:
        Admission bound: requests queued (not yet picked up by a worker)
        beyond this are shed with :class:`Overloaded` instead of
        enqueued.  Sizes the worst-case queueing delay — under overload
        the queue holds at most ``max_queue`` requests, so accepted
        requests keep a bounded p99 while the excess is rejected fast.
    metrics:
        Optional :class:`ServingMetrics` receiving request counts,
        per-request latency, batch sizes, shed and error counts.
    """

    def __init__(
        self,
        batch_fn: Callable[[Sequence[object]], Sequence[object]],
        *,
        max_batch_size: int = 32,
        workers: int = 1,
        max_queue: int = 1024,
        metrics: Optional[ServingMetrics] = None,
    ):
        if max_batch_size < 1:
            raise ReproError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        self.batch_fn = batch_fn
        self.max_batch_size = int(max_batch_size)
        self.max_queue = int(max_queue)
        self.metrics = metrics
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.max_queue)
        self._lock = threading.Lock()
        self._closed = False
        self._sequence = 0
        self._threads = [
            threading.Thread(target=self._worker, name=f"microbatcher-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Future:
        """Enqueue one request; returns a future resolving to its result.

        The closed check and the enqueue happen under one lock: checking,
        releasing, and then enqueuing would let a request racing
        :meth:`close` land *behind* the shutdown sentinels, where no
        worker would ever resolve its future.

        Raises :class:`Overloaded` (without consuming an arrival
        sequence number) when the queue is at ``max_queue``.
        """
        with self._lock:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            pending = _Pending(key=self._sequence, payload=payload)
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                if self.metrics is not None:
                    self.metrics.inc("shed_total")
                raise Overloaded(
                    f"serving queue is full ({self.max_queue} requests queued)"
                ) from None
            self._sequence += 1
        if self.metrics is not None:
            self.metrics.inc("requests_total")
        return pending.future

    def predict(self, payload: object, timeout: Optional[float] = None) -> object:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(payload).result(timeout=timeout)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting requests; drain workers; fail leftovers.

        Workers batch whatever precedes their shutdown sentinel, but a
        request enqueued between one worker's sentinel and another's (or
        left behind by a worker that died or timed out) would otherwise
        sit on the queue forever with its future unresolved — a
        ``predict()`` caller with no timeout hangs for good.  After the
        joins, everything still queued is failed with
        :class:`BatcherClosed`, so every future ever returned by
        :meth:`submit` resolves.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Under the same lock as submit's enqueue: nothing can land
            # behind these sentinels.  The queue is bounded and may be
            # full of shed-worthy requests at shutdown, so sentinel
            # placement evicts (and fails) queued requests rather than
            # blocking close() behind a wedged worker.
            for _ in self._threads:
                self._put_sentinel()
        for thread in self._threads:
            thread.join(timeout=timeout)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            self._fail(item, BatcherClosed("batcher closed before the request ran"))
        # A worker that outlived its join (wedged in a slow batch_fn) may
        # have had its sentinel swallowed by the drain; repost one per
        # survivor so it can still exit once its batch returns.  The
        # drain just emptied the queue, so these never block for long.
        for thread in self._threads:
            if thread.is_alive():
                self._put_sentinel()

    def _put_sentinel(self) -> None:
        """Place one shutdown sentinel without ever blocking.

        A full queue at close time holds requests that are doomed anyway
        (the post-join drain would fail them); evicting one to make room
        for the sentinel just fails it earlier.  Bounded attempts: if a
        sentinel evicts another sentinel (tiny queue, several workers)
        the shortfall is repaired by close()'s post-join repost loop.
        """
        for _ in range(self.max_queue + len(self._threads) + 1):
            try:
                self._queue.put_nowait(_SHUTDOWN)
                return
            except queue.Full:
                try:
                    evicted = self._queue.get_nowait()
                except queue.Empty:
                    continue
                if evicted is _SHUTDOWN:
                    # Keep the sibling's sentinel; count ours as placed —
                    # a deficit is repaired after the joins.
                    try:
                        self._queue.put_nowait(evicted)
                    except queue.Full:
                        pass
                    return
                self._fail(evicted, BatcherClosed("batcher closed before the request ran"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _collect(self, first: _Pending) -> Tuple[List[_Pending], bool]:
        """``first`` plus whatever is already queued, up to ``max_batch_size``.

        Never waits for stragglers.  Returns ``(batch, shutdown)``; a
        sentinel drained mid-batch is consumed by *this* worker (it runs
        the batch, then exits) rather than reposted — a repost against a
        full bounded queue would block the worker behind the very
        backlog it should be draining.
        """
        batch = [first]
        while len(batch) < self.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch, shutdown = self._collect(item)
            self._run_batch(batch)
            if shutdown:
                return

    def _run_batch(self, batch: List[_Pending]) -> None:
        if self.metrics is not None:
            self.metrics.observe_batch_size(len(batch))
        live: List[_Pending] = []
        for pending in batch:
            try:
                fault_point("serving:request", key=pending.key, payload=pending.payload)
            except Exception as error:
                self._fail(pending, error)
            else:
                live.append(pending)
        if not live:
            return
        try:
            results = self.batch_fn([pending.payload for pending in live])
            if len(results) != len(live):
                raise ReproError(
                    f"batch_fn returned {len(results)} results for {len(live)} requests"
                )
        except Exception as error:
            # Batch-level failure.  With several coalesced requests the
            # culprit may be a single malformed payload, so isolate: run
            # each request alone and fail only the ones that fail alone.
            # (Deterministic batch_fns make the retry bitwise-equal.)
            if len(live) == 1:
                self._fail(live[0], error)
            else:
                for pending in live:
                    self._run_isolated(pending)
            return
        now = time.monotonic()
        for pending, result in zip(live, results):
            if self.metrics is not None:
                self.metrics.observe_latency(now - pending.submitted)
            pending.future.set_result(result)

    def _run_isolated(self, pending: _Pending) -> None:
        """Retry one already-fault-checked request alone (error isolation)."""
        try:
            (result,) = self.batch_fn([pending.payload])
        except Exception as error:
            self._fail(pending, error)
            return
        if self.metrics is not None:
            self.metrics.observe_latency(time.monotonic() - pending.submitted)
        pending.future.set_result(result)

    def _fail(self, pending: _Pending, error: Exception) -> None:
        if self.metrics is not None:
            self.metrics.inc("errors_total")
        pending.future.set_exception(error)
