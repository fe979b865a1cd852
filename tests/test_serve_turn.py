"""The per-process compute turn: thread shards, and the process
executor's in-parent degraded tier, run their batches one at a time in
the order they asked, and report how long each shard waited."""

from __future__ import annotations

import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.serve import CollisionSolveService, ServeOptions, SolveJob, SolvePlan
from repro.serve.service import ComputeTurn
from repro.serve.shard import ShardWorker

DT = 0.3


def _wait_for(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached in time"
        time.sleep(0.001)


class TestComputeTurn:
    def test_free_turn_reports_no_wait(self):
        turn = ComputeTurn()
        with turn as waited:
            assert waited == 0.0
        with turn as waited:  # released on exit: free again
            assert waited == 0.0

    def test_waiters_get_the_turn_in_arrival_order(self):
        turn = ComputeTurn()
        order = []
        waits = {}

        def take(i):
            with turn as waited:
                waits[i] = waited
                order.append(i)

        turn.acquire()
        threads = []
        for i in range(5):
            t = threading.Thread(target=take, args=(i,))
            t.start()
            threads.append(t)
            _wait_for(lambda n=i + 1: len(turn._waiters) == n)
        time.sleep(0.02)
        turn.release()
        for t in threads:
            t.join(5.0)
            assert not t.is_alive()
        assert order == [0, 1, 2, 3, 4]
        assert all(w > 0.0 for w in waits.values())

    def test_releasing_thread_queues_behind_a_waiter(self):
        """A plain lock could be re-taken at once by the thread that just
        released it; the turn goes to the thread already waiting."""
        turn = ComputeTurn()
        order = []

        def waiter():
            with turn:
                order.append("waiter")
                time.sleep(0.01)

        turn.acquire()
        t = threading.Thread(target=waiter)
        t.start()
        _wait_for(lambda: len(turn._waiters) == 1)
        turn.release()
        with turn:
            order.append("releaser")
        t.join(5.0)
        assert not t.is_alive()
        assert order == ["waiter", "releaser"]

    def test_exception_inside_the_turn_hands_it_on(self):
        turn = ComputeTurn()
        entered = threading.Event()
        got_turn = threading.Event()

        def failing():
            with pytest.raises(RuntimeError):
                with turn:
                    entered.set()
                    _wait_for(lambda: len(turn._waiters) == 1)
                    raise RuntimeError("batch failed")

        def waiter():
            with turn:
                got_turn.set()

        f = threading.Thread(target=failing)
        f.start()
        assert entered.wait(5.0)
        w = threading.Thread(target=waiter)
        w.start()
        f.join(5.0)
        assert got_turn.wait(5.0)
        w.join(5.0)
        assert not f.is_alive() and not w.is_alive()
        assert turn.acquire() == 0.0  # nobody holds it any more
        turn.release()

    def test_interrupted_waiter_leaves_the_queue(self):
        """An interrupt (here a signal handler that raises) while waiting
        must not leave a dead entry that the turn would be handed to."""
        turn = ComputeTurn()
        holding = threading.Event()
        release = threading.Event()

        def holder():
            with turn:
                holding.set()
                release.wait(5.0)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        h = threading.Thread(target=holder)
        h.start()
        assert holding.wait(5.0)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(KeyboardInterrupt):
                turn.acquire()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(turn._waiters) == 0
        release.set()
        h.join(5.0)
        assert not h.is_alive()
        assert turn.acquire() == 0.0
        turn.release()

    def test_many_threads_one_holder_at_a_time(self):
        """More threads than cores, switching as often as the interpreter
        allows: no update made inside the turn is lost."""
        turn = ComputeTurn()
        state = {"count": 0, "inside": 0, "max_inside": 0}
        n_threads, n_turns = 8, 200

        def work():
            for _ in range(n_turns):
                with turn:
                    state["inside"] += 1
                    state["max_inside"] = max(state["max_inside"], state["inside"])
                    count = state["count"]
                    time.sleep(0)  # invite a switch mid read-modify-write
                    state["count"] = count + 1
                    state["inside"] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert state["count"] == n_threads * n_turns
        assert state["max_inside"] == 1


def _one_plan_per_shard(svc, fs, species):
    plans = {}
    for k in range(64):
        plan = SolvePlan(fs=fs, species=species, dt=DT * (1 + k / 100))
        plans.setdefault(svc.ring.route(plan.key), plan)
    assert len(plans) == svc.options.num_shards
    return [plans[s] for s in range(svc.options.num_shards)]


@pytest.fixture
def in_flight(monkeypatch):
    """Wrap ``ShardWorker.execute_batch`` to record how many batches are
    inside it at once (each call is held open briefly, so two shards
    that could overlap do)."""
    lock = threading.Lock()
    record = {"now": 0, "max": 0, "calls": 0}
    original = ShardWorker.execute_batch

    def wrapped(self, jobs):
        with lock:
            record["now"] += 1
            record["calls"] += 1
            record["max"] = max(record["max"], record["now"])
        try:
            time.sleep(0.02)
            return original(self, jobs)
        finally:
            with lock:
                record["now"] -= 1

    monkeypatch.setattr(ShardWorker, "execute_batch", wrapped)
    return record


@pytest.fixture(scope="module")
def turn_states(request):
    fs = request.getfixturevalue("fs_q2")
    rng = np.random.default_rng(39)
    return [
        fs.interpolate(
            lambda r, z, v=0.886 * rng.uniform(0.8, 1.1): maxwellian_rz(
                r, z, 1.0, v
            )
        )[None, :]
        for _ in range(8)
    ]


class TestServiceTakesTurns:
    def test_started_thread_shards_never_overlap(
        self, fs_q2, electron_species, turn_states, in_flight
    ):
        svc = CollisionSolveService(
            ServeOptions(num_shards=2, max_batch=4, max_wait_ms=1.0)
        )
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        # two full batches queued on each shard before the dispatchers run
        handles = [
            svc.submit(plan, s) for plan in plans for s in turn_states
        ]
        with svc:
            svc.start()
            results = [h.result(120.0) for h in handles]
            svc.stop()
            snap = svc.snapshot()
        assert all(r.ok for r in results)
        assert in_flight["calls"] == 4
        assert in_flight["max"] == 1
        assert snap["batch_size_hist"] == {"4": 4}
        waits = [s["turn_wait_s"] for s in snap["shards"]]
        assert snap["turn_wait_s"] == pytest.approx(sum(waits))
        assert snap["turn_wait_s"] > 0.0

    def test_drain_takes_the_turn_without_waiting(
        self, fs_q2, electron_species, turn_states
    ):
        svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=4))
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        handles = [svc.submit(p, s) for p in plans for s in turn_states[:4]]
        assert svc.drain() == len(handles)
        assert all(h.result(1.0).ok for h in handles)
        snap = svc.snapshot()
        assert snap["turn_wait_s"] == 0.0
        assert [s["turn_wait_s"] for s in snap["shards"]] == [0.0, 0.0]

    def test_degraded_tier_never_overlaps(
        self, fs_q2, electron_species, turn_states, in_flight
    ):
        """Process-executor shards served in the parent share its GIL, so
        two shards degraded at once take turns as thread shards do."""
        with CollisionSolveService(
            ServeOptions(num_shards=2, executor="process")
        ) as svc:
            plans = _one_plan_per_shard(svc, fs_q2, electron_species)
            start = threading.Barrier(2)
            out = {}

            def degraded(shard):
                jobs = [
                    SolveJob(plan=plans[shard], state=s, job_id=f"{shard}-{i}")
                    for i, s in enumerate(turn_states[:4])
                ]
                start.wait()
                out[shard] = svc._execute_degraded(shard, jobs)

            threads = [
                threading.Thread(target=degraded, args=(s,)) for s in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            assert not any(t.is_alive() for t in threads)
            assert in_flight["max"] == 1 and in_flight["calls"] == 2
            assert all(res.ok for s in (0, 1) for _, res in out[s])
            assert sum(svc._turn_wait) > 0.0
