"""Micro-batcher: ordering, bitwise parity, fault isolation, lifecycle.

Satellite contract: hypothesis property tests that batching preserves
per-request ordering and returns results bitwise-equal to unbatched
single-request inference; a multi-threaded smoke test with concurrent
clients; and proof that an injected ``serving:request`` fault errors only
its own future while the batching loop survives.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serving.batching import BatcherClosed, MicroBatcher, Overloaded
from repro.serving.engine import ServingError
from repro.serving.metrics import ServingMetrics
from repro.testing.faults import FaultPlan, WorkerCrash, inject

NUM_NODES = 60  # tiny_graph size; strategies must stay in range

node_request = st.lists(st.integers(min_value=0, max_value=NUM_NODES - 1), min_size=1, max_size=6)
request_stream = st.lists(node_request, min_size=1, max_size=24)

relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
class TestProperties:
    @relaxed
    @given(stream=request_stream)
    def test_results_are_bitwise_equal_to_unbatched(self, engine, stream):
        expected = [engine.predict_nodes(nodes) for nodes in stream]
        with MicroBatcher(engine.predict_many, max_batch_size=8) as batcher:
            futures = [batcher.submit(nodes) for nodes in stream]
            for future, reference in zip(futures, expected):
                assert np.array_equal(future.result(timeout=10), reference)

    @relaxed
    @given(stream=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=32))
    def test_ordering_is_preserved_under_coalescing(self, stream):
        # A payload-tagging batch_fn makes routing mistakes visible: each
        # future must resolve to a pure function of its own payload.
        def batch_fn(payloads):
            return [(value, value * 2 + 1) for value in payloads]

        with MicroBatcher(batch_fn, max_batch_size=4) as batcher:
            futures = [batcher.submit(value) for value in stream]
            for value, future in zip(stream, futures):
                assert future.result(timeout=10) == (value, value * 2 + 1)

    @relaxed
    @given(stream=request_stream)
    def test_parity_holds_with_multiple_workers(self, engine, stream):
        with MicroBatcher(engine.predict_many, max_batch_size=4, workers=2) as batcher:
            futures = [batcher.submit(nodes) for nodes in stream]
            for nodes, future in zip(stream, futures):
                assert np.array_equal(future.result(timeout=10), engine.predict_nodes(nodes))


# ----------------------------------------------------------------------
# Concurrency smoke
# ----------------------------------------------------------------------
class TestConcurrentClients:
    def test_concurrent_clients_get_their_own_bitwise_results(self, engine):
        clients, per_client = 8, 20
        rng = np.random.default_rng(5)
        streams = [
            [rng.integers(0, engine.num_nodes, size=4) for _ in range(per_client)]
            for _ in range(clients)
        ]
        expected = [[engine.predict_nodes(nodes) for nodes in stream] for stream in streams]
        metrics = ServingMetrics()
        mismatches = []

        with MicroBatcher(engine.predict_many, max_batch_size=16, metrics=metrics) as batcher:

            def client(index):
                for nodes, reference in zip(streams[index], expected[index]):
                    if not np.array_equal(batcher.predict(nodes, timeout=30), reference):
                        mismatches.append(index)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not mismatches
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["requests_total"] == clients * per_client
        assert snapshot["counters"].get("errors_total", 0) == 0
        assert snapshot["histograms"]["batch_size"]["count"] == snapshot["counters"]["batches_total"]
        assert snapshot["histograms"]["latency_ms"]["count"] == clients * per_client


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
def _gated(batch_fn):
    """(gated_fn, entered, release): ``batch_fn`` whose first call parks
    until ``release`` is set, so requests submitted meanwhile queue up and
    coalesce deterministically into the next batch."""
    entered, release = threading.Event(), threading.Event()

    def gated(payloads):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=30)
        return batch_fn(payloads)

    return gated, entered, release


class TestFaultIsolation:
    def test_injected_fault_fails_only_its_own_future(self, engine):
        metrics = ServingMetrics()
        gated, entered, release = _gated(engine.predict_many)
        # Key 0 is the gating request, so key 2 is node 1 below.
        with inject(FaultPlan().fail("serving:request", key=2)) as plan:
            with MicroBatcher(gated, max_batch_size=8, metrics=metrics) as batcher:
                batcher.submit([4])
                assert entered.wait(timeout=10)
                futures = [batcher.submit([node]) for node in (0, 1, 2, 3)]
                release.set()
                with pytest.raises(WorkerCrash):
                    futures[1].result(timeout=10)
                for node in (0, 2, 3):
                    assert np.array_equal(
                        futures[node].result(timeout=10), engine.predict_nodes([node])
                    )
                # The loop survived: later requests still get answers.
                assert np.array_equal(
                    batcher.predict([5], timeout=10), engine.predict_nodes([5])
                )
        assert plan.fired("serving:request") == 1
        assert metrics.counter("errors_total") == 1
        assert metrics.counter("requests_total") == 6
        assert metrics.snapshot()["histograms"]["batch_size"]["max"] == 4

    def test_malformed_payload_fails_alone_in_a_coalesced_batch(self, engine):
        # predict_many validates up front and raises for the whole batch;
        # the batcher isolates by re-running each request alone, so only
        # the bad payload's future errors.
        metrics = ServingMetrics()
        gated, entered, release = _gated(engine.predict_many)
        with MicroBatcher(gated, max_batch_size=8, metrics=metrics) as batcher:
            batcher.submit([3])
            assert entered.wait(timeout=10)
            futures = [batcher.submit(payload) for payload in ([0, 1], [10**6], [2])]
            release.set()
            with pytest.raises(ServingError):
                futures[1].result(timeout=10)
            assert np.array_equal(futures[0].result(timeout=10), engine.predict_nodes([0, 1]))
            assert np.array_equal(futures[2].result(timeout=10), engine.predict_nodes([2]))
        assert metrics.snapshot()["histograms"]["batch_size"]["max"] == 3

    def test_single_request_batch_failure_surfaces_directly(self, engine):
        with MicroBatcher(engine.predict_many, max_batch_size=1) as batcher:
            with pytest.raises(ServingError):
                batcher.predict([10**6], timeout=10)
            assert np.array_equal(batcher.predict([0], timeout=10), engine.predict_nodes([0]))

    def test_miscounting_batch_fn_fails_the_request(self):
        with MicroBatcher(lambda payloads: [], max_batch_size=1) as batcher:
            with pytest.raises(ReproError, match="results"):
                batcher.predict("x", timeout=10)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_sheds_with_overloaded_and_accepted_work_completes(self):
        # Regression: the queue used to be unbounded — saturation grew
        # latency without limit instead of rejecting the excess.
        release = threading.Event()
        metrics = ServingMetrics()

        def blocking_batch_fn(payloads):
            release.wait(timeout=30)
            return [p * 2 for p in payloads]

        batcher = MicroBatcher(blocking_batch_fn, max_batch_size=1, max_queue=2, metrics=metrics)
        try:
            first = batcher.submit(0)  # the worker takes this and blocks
            pause = threading.Event()
            while batcher._queue.qsize() and not pause.wait(0.01):
                pass  # wait until the first request is truly in-flight
            accepted = [batcher.submit(i + 1) for i in range(2)]  # fills the queue
            shed = 0
            for i in range(5):
                with pytest.raises(Overloaded) as excinfo:
                    batcher.submit(i + 10)
                shed += 1
                assert excinfo.value.retry_after_s > 0
            release.set()
            # Shedding protected the accepted requests: all complete.
            assert first.result(timeout=10) == 0
            assert [f.result(timeout=10) for f in accepted] == [2, 4]
        finally:
            release.set()
            batcher.close()
        assert metrics.counter("shed_total") == shed
        assert metrics.counter("requests_total") == 3  # shed never counted

    def test_shed_requests_do_not_consume_sequence_numbers(self):
        # The fault-point key is the arrival sequence number; shedding
        # must not advance it or keyed fault plans would drift under load.
        release = threading.Event()
        batcher = MicroBatcher(
            lambda payloads: (release.wait(timeout=30), payloads)[1],
            max_batch_size=1, max_queue=1,
        )
        try:
            batcher.submit("a")  # key 0, taken by the worker
            pause = threading.Event()
            while batcher._queue.qsize() and not pause.wait(0.01):
                pass
            batcher.submit("b")  # key 1, fills the queue
            with pytest.raises(Overloaded):
                batcher.submit("shed")
            release.set()
            assert batcher._sequence == 2
        finally:
            release.set()
            batcher.close()


# ----------------------------------------------------------------------
# Shutdown races (regression tests)
# ----------------------------------------------------------------------
class TestShutdownRaces:
    def test_close_fails_requests_still_queued_behind_the_sentinel(self):
        # Regression: close() used to join the workers and return, leaving
        # _Pending items queued behind the shutdown sentinel with their
        # futures forever unresolved — predict() with no timeout hung.
        release = threading.Event()

        def blocking_batch_fn(payloads):
            release.wait(timeout=30)
            return [p for p in payloads]

        batcher = MicroBatcher(blocking_batch_fn, max_batch_size=1)
        first = batcher.submit("a")  # a worker takes this and blocks
        # Wait until the worker is actually inside batch_fn so the rest
        # of the stream stays queued.
        deadline = threading.Event()
        while batcher._queue.qsize() and not deadline.wait(0.01):
            pass
        queued = [batcher.submit(payload) for payload in ("b", "c", "d")]

        closer = threading.Thread(target=batcher.close, kwargs={"timeout": 0.2})
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()

        # Every queued future resolved — with BatcherClosed, not a hang.
        for future in queued:
            with pytest.raises(BatcherClosed):
                future.result(timeout=5)
        # The in-flight request still completes once the worker unblocks.
        release.set()
        assert first.result(timeout=10) == "a"

    def test_submit_close_race_never_leaves_a_hung_future(self):
        # Regression: submit() checked _closed, released the lock, then
        # enqueued — a request racing close() could land behind the
        # sentinel and hang.  Hammer the race: every future returned by
        # submit must resolve (result or BatcherClosed) within a timeout.
        for _ in range(20):
            batcher = MicroBatcher(
                lambda payloads: [p * 2 for p in payloads],
                max_batch_size=4,
                workers=2,
            )
            futures, lock = [], threading.Lock()
            start = threading.Barrier(5)

            def client():
                try:
                    start.wait(timeout=5)
                except threading.BrokenBarrierError:
                    return
                while True:
                    try:
                        future = batcher.submit(1)
                    except BatcherClosed:
                        return
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            start.wait(timeout=5)
            batcher.close()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            for future in futures:
                try:
                    assert future.result(timeout=5) == 2
                except BatcherClosed:
                    pass  # failed cleanly at shutdown: acceptable, not a hang


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_closed_batcher_refuses_submissions(self, engine):
        batcher = MicroBatcher(engine.predict_many)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit([0])
        batcher.close()  # idempotent

    def test_lone_request_on_an_idle_batcher_runs_at_once(self):
        # Dispatch-when-idle: no second arrival is needed to release it.
        sizes = []
        with MicroBatcher(lambda payloads: sizes.append(len(payloads)) or payloads) as batcher:
            assert batcher.predict("a", timeout=10) == "a"
        assert sizes == [1]

    def test_close_drains_inflight_requests(self, engine):
        batcher = MicroBatcher(engine.predict_many, max_batch_size=4)
        futures = [batcher.submit([node]) for node in range(6)]
        batcher.close()
        for node, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=10), engine.predict_nodes([node]))

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch_size": 0}, {"workers": 0}, {"max_queue": 0}],
        ids=["batch-size", "workers", "queue"],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            MicroBatcher(lambda payloads: payloads, **kwargs)
