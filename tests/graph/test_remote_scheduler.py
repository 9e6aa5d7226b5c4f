"""Tests for the socket-based remote scheduler and its wire protocol.

The remote backend inherits the process backend's planning (hybrid
dispatch, ``Task.shippable``), so these tests pin what is genuinely new:

* **wire protocol** — length-prefixed, checksummed framing that rejects
  corruption, bad magic, unknown types and oversized frames;
* **authentication** — nothing a client sends is unpickled before it
  answers the coordinator's HMAC challenge; a stray or wrong-key client
  is rejected without disturbing the pool, and a correct-key handshake
  (the attach-mode contract) is admitted;
* **failure semantics** — a worker killed mid-bundle gets its bundles
  re-dispatched to a live worker (counted in ``RunStats.redispatched``)
  and the run completes with correct results; a wedged worker is detected
  via the per-task timeout, which starts at the worker's STARTED frame so
  queue wait behind a slow-but-healthy bundle never trips it;
* **accounting** — shipped/received wire bytes and per-worker utilization
  reach ``RunStats``, and a warm-cache replay ships zero bundles and zero
  bytes.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.graph import (
    SynchronousScheduler,
    Task,
    TaskCache,
    available_schedulers,
    delayed,
    get_scheduler,
)
from repro.graph import wire
from repro.graph.remote import (
    AFFINITY_SPILL_INFLIGHT,
    RemoteExecutor,
    RemoteScheduler,
    shutdown_remote_pools,
)

@pytest.fixture(scope="module", autouse=True)
def _reap_remote_pools():
    yield
    shutdown_remote_pools()


# --------------------------------------------------------------------------- #
# Module-level task functions (the picklability contract requires them).
# --------------------------------------------------------------------------- #
def make_values(n):
    return list(range(n))


def square_sum(values):
    return sum(v * v for v in values)


def worker_pid(values):
    return os.getpid()


def combine_sum(parts):
    return sum(parts)


def boom(values):
    raise ValueError("boom in remote worker")


def crash_once(marker_path, values):
    """Kill the executing worker on first call, succeed on re-dispatch."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        os._exit(3)
    return sum(values)


def stall_once(marker_path, values):
    """Exceed the pool's task timeout on first call, succeed on re-dispatch."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        time.sleep(30.0)
    return sum(values)


def sleep_then_sum(seconds, values):
    """A healthy-but-slow task: sleeps, then reduces."""
    time.sleep(seconds)
    return sum(values)


def path_length(path, offset):
    """A parse-shaped task: path first, like a CSV byte-range parse."""
    return len(path) + offset


def chunked_graph(n_chunks=4, chunk_func=square_sum):
    """A reduction-shaped graph: chunk roots -> per-chunk work -> combine."""
    chunks = [delayed(make_values, prefix="chunk")(10 + i)
              for i in range(n_chunks)]
    partials = [chunk.then(chunk_func) for chunk in chunks]
    return delayed(combine_sum, prefix="combine")(partials)


@pytest.fixture
def scheduler():
    # Default pool parameters on purpose: every test sharing them reuses
    # one process-wide pool, so interpreter spawn cost is paid once.
    instance = RemoteScheduler(workers=2)
    yield instance
    instance.close()


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestWireProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_roundtrip(self):
        left, right = self._pair()
        payload = wire.dump_payload({"id": "w1", "pid": 42})
        sent = wire.send_frame(left, wire.MSG_HELLO, payload)
        assert sent == len(payload) + 13          # 4s + B + I + I header
        msg_type, received = wire.recv_frame(right)
        assert msg_type == wire.MSG_HELLO
        assert wire.load_payload(received) == {"id": "w1", "pid": 42}

    def test_empty_payload_roundtrip(self):
        left, right = self._pair()
        wire.send_frame(left, wire.MSG_PING)
        assert wire.recv_frame(right) == (wire.MSG_PING, b"")

    def test_bad_magic_rejected(self):
        left, right = self._pair()
        left.sendall(b"XXXX" + wire.pack_frame(wire.MSG_PING)[4:])
        with pytest.raises(wire.WireError, match="magic"):
            wire.recv_frame(right)

    def test_unknown_type_rejected(self):
        left, right = self._pair()
        frame = bytearray(wire.pack_frame(wire.MSG_PING))
        frame[4] = 250
        left.sendall(bytes(frame))
        with pytest.raises(wire.WireError, match="type"):
            wire.recv_frame(right)

    def test_corrupted_payload_rejected(self):
        left, right = self._pair()
        frame = bytearray(wire.pack_frame(wire.MSG_TASK, b"hello world"))
        frame[-1] ^= 0xFF                          # flip a payload bit
        left.sendall(bytes(frame))
        with pytest.raises(wire.WireError, match="checksum"):
            wire.recv_frame(right)

    def test_oversized_announcement_rejected_without_reading(self):
        left, right = self._pair()
        header = wire._HEADER.pack(wire.MAGIC, wire.MSG_TASK,
                                   wire.MAX_FRAME_BYTES + 1, 0)
        left.sendall(header)
        with pytest.raises(wire.WireError, match="frame limit"):
            wire.recv_frame(right)

    def test_oversized_payload_refused_on_send(self):
        class Huge(bytes):
            def __len__(self):
                return wire.MAX_FRAME_BYTES + 1

        with pytest.raises(wire.WireError, match="frame limit"):
            wire.pack_frame(wire.MSG_TASK, Huge())

    def test_eof_raises_connection_closed(self):
        left, right = self._pair()
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_frame(right)

    def test_parse_address(self):
        assert wire.parse_address("127.0.0.1:8786") == ("127.0.0.1", 8786)
        assert wire.parse_address("somehost:0") == ("somehost", 0)
        for bad in ("no-port", ":8786", "host:port", "host:70000"):
            with pytest.raises(wire.WireError):
                wire.parse_address(bad)


# --------------------------------------------------------------------------- #
# Scheduler basics
# --------------------------------------------------------------------------- #
class TestRemoteSchedulerBasics:
    def test_registered(self):
        assert "remote" in available_schedulers()
        assert isinstance(get_scheduler("remote", workers=1), RemoteScheduler)

    def test_agrees_with_synchronous(self, scheduler):
        total = chunked_graph()
        expected = total.compute(scheduler=SynchronousScheduler())
        assert total.compute(scheduler=scheduler) == expected

    def test_bundles_run_in_worker_processes(self, scheduler):
        chunk = delayed(make_values, prefix="chunk")(5)
        pid = chunk.then(worker_pid).compute(scheduler=scheduler)
        assert pid != os.getpid()

    def test_wire_accounting_reaches_run_stats(self, scheduler):
        chunked_graph().compute(scheduler=scheduler)
        run = scheduler.last_run
        assert run.shipped >= 8                    # 4 roots + 4 members
        assert run.shipped_bytes > 0
        assert run.bytes_received > 0
        assert run.redispatched == 0
        assert run.worker_utilization, "per-worker utilization must be reported"
        assert all(0.0 <= busy <= 1.0
                   for busy in run.worker_utilization.values())

    def test_worker_task_exception_names_the_task(self, scheduler):
        from repro.errors import SchedulerError
        chunk = delayed(make_values, prefix="chunk")(5)
        bad = chunk.then(boom)
        with pytest.raises(SchedulerError) as excinfo:
            bad.compute(scheduler=scheduler)
        assert excinfo.value.key == bad.key
        assert "boom in remote worker" in str(excinfo.value.cause)

    def test_affinity_is_what_the_task_declares(self, tmp_path):
        from repro.frame import DataFrame
        from repro.frame.io import scan_csv, write_csv
        from repro.graph.partition import PartitionedFrame
        chunk = delayed(path_length, affinity="/data/part-0.csv")(
            "/data/part-0.csv", 0)
        assert chunk.graph[chunk.key].affinity == "/data/part-0.csv"
        # Projected/filtered parse variants of a scan declare their file.
        path = str(tmp_path / "part-1.csv")
        write_csv(DataFrame({"a": [1.0, 2.0, 3.0]}), path)
        parts = PartitionedFrame.from_source(
            scan_csv(path), columns=("a",), predicate=(("a", ">", 1.0),))
        assert [part.graph[part.key].affinity
                for part in parts.partitions] == [path]

    def test_nothing_is_pinned_by_the_look_of_its_key_or_arguments(self):
        # A path-shaped first argument, a slash-bearing string (e.g. a date
        # format) or a partition-like key prefix declare nothing.
        for value in (
                delayed(path_length, prefix="read_csv_partition")("/data/a.csv", 0),
                delayed(make_values, prefix="sketch")("%m/%d/%Y"),
                Task("read_csv_partition-0", make_values, ("/data/a.csv", 0, 9), {})):
            task = value.graph[value.key] if hasattr(value, "graph") else value
            assert task.affinity is None
        # In-memory slices carry the frame itself: no file to shard by.
        from repro.frame import DataFrame
        from repro.graph.partition import PartitionedFrame
        part = PartitionedFrame.from_frame(DataFrame({"a": [1.0]})).partitions[0]
        assert part.graph[part.key].affinity is None

    def test_single_path_scan_does_not_pin(self, scheduler):
        # Every bundle of a single-file scan must round-robin across the
        # pool: with pinning active they would all land on one worker and
        # the remote backend would run serially.
        chunks = [delayed(path_length, affinity="/data/only.csv")(
            "/data/only.csv", offset) for offset in range(4)]
        total = delayed(combine_sum, prefix="combine")(chunks)
        total.compute(scheduler=scheduler)
        assert scheduler._affinity_active is False

        # Undeclared paths among the arguments do not switch pinning on ...
        chunks = [delayed(path_length)(path, 0)
                  for path in ("/data/a.csv", "/data/b.csv")]
        delayed(combine_sum, prefix="combine")(chunks).compute(scheduler=scheduler)
        assert scheduler._affinity_active is False

        # ... two distinct declared ones do.
        chunks = [delayed(path_length, affinity=path)(path, 0)
                  for path in ("/data/a.csv", "/data/b.csv")]
        total = delayed(combine_sum, prefix="combine")(chunks)
        total.compute(scheduler=scheduler)
        assert scheduler._affinity_active is True

    def test_pinned_bundles_spill_when_owner_backs_up(self, scheduler):
        executor = scheduler.executor()
        assert isinstance(executor, RemoteExecutor)
        pool = executor.pool()
        assert pool.wait_for_workers(2, timeout=60.0) >= 2
        # Saturate the affinity owner with slow pinned tasks; once its
        # queue reaches the spill threshold, further pinned submissions
        # must land on the other (idle) worker instead of queueing.
        futures = [pool.submit(sleep_then_sum, 0.4, [1],
                               affinity="/data/hot.csv")
                   for _ in range(AFFINITY_SPILL_INFLIGHT + 2)]
        with pool._lock:
            owner = pool._affinity["/data/hot.csv"]
            spread = {task.worker
                      for link in pool._workers.values()
                      for task in link.inflight.values()}
        assert owner in spread
        assert len(spread) > 1, "overflow beyond the spill threshold must " \
                                "reach a second worker"
        assert all(f.result(timeout=60.0) == 1 for f in futures)


# --------------------------------------------------------------------------- #
# Authentication
# --------------------------------------------------------------------------- #
class TestAuthentication:
    def test_wrong_key_rejected_without_unpickling(self, scheduler):
        executor = scheduler.executor()
        assert isinstance(executor, RemoteExecutor)
        pool = executor.pool()
        pool.wait_for_workers(1, timeout=60.0)
        before = pool.stats_snapshot().rejected_connections
        host, port = wire.parse_address(pool.address)
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.settimeout(10.0)
            msg_type, nonce = wire.recv_frame(sock)
            assert msg_type == wire.MSG_CHALLENGE
            assert len(nonce) == wire.NONCE_BYTES
            wire.send_frame(sock, wire.MSG_HELLO, wire.dump_json(
                {"id": "intruder", "pid": 1, "host": "elsewhere",
                 "digest": wire.compute_digest("not-the-key", nonce),
                 "nonce": "00" * wire.NONCE_BYTES}))
            # No WELCOME: the coordinator hangs up on a wrong digest.
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_frame(sock)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if pool.stats_snapshot().rejected_connections > before:
                break
            time.sleep(0.05)
        assert pool.stats_snapshot().rejected_connections > before
        assert "intruder" not in pool.worker_ids()
        # The pool still serves real work afterwards.
        assert pool.submit(square_sum, [1, 2]).result(timeout=30.0) == 5

    def test_shared_key_handshake_admits_attached_client(self):
        # The attach-mode contract: a client holding the configured key
        # passes the challenge-response and joins the pool; the WELCOME
        # digest proves the coordinator holds the key too.
        executor = RemoteExecutor(workers=0, authkey="s3cret-handshake")
        pool = executor.pool()
        try:
            host, port = wire.parse_address(pool.address)
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.settimeout(10.0)
                msg_type, nonce = wire.recv_frame(sock)
                assert msg_type == wire.MSG_CHALLENGE
                counter_nonce = os.urandom(wire.NONCE_BYTES)
                wire.send_frame(sock, wire.MSG_HELLO, wire.dump_json(
                    {"id": "attached", "pid": 0, "host": "elsewhere",
                     "digest": wire.compute_digest("s3cret-handshake", nonce),
                     "nonce": counter_nonce.hex()}))
                msg_type, payload = wire.recv_frame(sock)
                assert msg_type == wire.MSG_WELCOME
                assert wire.verify_digest(
                    "s3cret-handshake", counter_nonce,
                    wire.load_json(payload).get("digest"))
                assert pool.wait_for_workers(1, timeout=10.0) == 1
                assert pool.worker_ids() == ["attached"]
        finally:
            executor.discard()

    def test_worker_refuses_unauthenticated_coordinator(self):
        # TASK frames carry pickled callables, so a worker must hang up on
        # a "coordinator" that cannot answer its counter-nonce.
        from repro.graph.remote import worker_main
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(10.0)
        host, port = server.getsockname()[:2]
        outcome = {}

        def run_worker():
            try:
                worker_main(host, port, worker_id="w", authkey="worker-key")
            except SystemExit as error:
                outcome["exit"] = str(error)

        thread = threading.Thread(target=run_worker, daemon=True)
        thread.start()
        try:
            conn, _ = server.accept()
            conn.settimeout(10.0)
            wire.send_frame(conn, wire.MSG_CHALLENGE,
                            b"\x00" * wire.NONCE_BYTES)
            msg_type, payload = wire.recv_frame(conn)
            assert msg_type == wire.MSG_HELLO
            hello = wire.load_json(payload)
            wire.send_frame(conn, wire.MSG_WELCOME, wire.dump_json(
                {"digest": wire.compute_digest(
                    "not-the-workers-key", bytes.fromhex(hello["nonce"]))}))
            # The worker must disconnect instead of serving tasks.
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_frame(conn)
            conn.close()
        finally:
            server.close()
        thread.join(timeout=10.0)
        assert "handshake" in outcome["exit"]

    def test_worker_without_key_exits_early(self, monkeypatch):
        from repro.graph.remote import AUTHKEY_ENV, worker_main
        monkeypatch.delenv(AUTHKEY_ENV, raising=False)
        with pytest.raises(SystemExit, match=AUTHKEY_ENV):
            worker_main("127.0.0.1", 1, worker_id="w")


# --------------------------------------------------------------------------- #
# Failure semantics
# --------------------------------------------------------------------------- #
class TestFailureSemantics:
    def test_worker_crash_mid_bundle_redispatches(self, tmp_path, scheduler):
        # First execution of the bundle kills its worker after dropping a
        # marker file; the pool must detect the dead connection, re-dispatch
        # the bundle to a live worker (which sees the marker and succeeds)
        # and complete the run with the right answer — not hang, not fail.
        marker = str(tmp_path / "crashed-once")
        chunks = [delayed(make_values, prefix="chunk")(10 + i)
                  for i in range(4)]
        partials = [delayed(square_sum, prefix="sq")(chunk)
                    for chunk in chunks[1:]]
        partials.append(delayed(crash_once, prefix="sq")(marker, chunks[0]))
        total = delayed(combine_sum, prefix="combine")(partials)

        # Computed by hand — running crash_once through the synchronous
        # scheduler would os._exit this very process.
        expected = sum(square_sum(range(10 + i)) for i in (1, 2, 3)) \
            + sum(range(10))
        assert total.compute(scheduler=scheduler) == expected
        assert scheduler.last_run.redispatched >= 1

    def test_slow_worker_timeout_redispatches(self, tmp_path):
        # A bundle outliving timeout_s marks its worker as wedged; the
        # bundle must move to a live worker instead of stalling the run.
        marker = str(tmp_path / "stalled-once")
        scheduler = RemoteScheduler(workers=2, heartbeat_s=0.3, timeout_s=2.0)
        try:
            chunk = delayed(make_values, prefix="chunk")(10)
            slow = delayed(stall_once, prefix="sq")(marker, chunk)
            started = time.monotonic()
            assert slow.compute(scheduler=scheduler) == sum(range(10))
            assert time.monotonic() - started < 25.0, \
                "re-dispatch must beat the 30s stall"
            assert scheduler.last_run.redispatched >= 1
        finally:
            scheduler.close()

    def test_queue_wait_does_not_trip_the_task_timeout(self):
        # Workers execute their queue serially, so the last of four 0.5s
        # bundles dispatched to one worker waits ~1.5s — past timeout_s —
        # before it runs.  The timeout must clock from the worker's
        # STARTED frame, not from dispatch: every bundle completes on the
        # original worker with zero re-dispatches.
        executor = RemoteExecutor(workers=1, heartbeat_s=0.2, timeout_s=1.0)
        pool = executor.pool()
        try:
            futures = [pool.submit(sleep_then_sum, 0.5, [i])
                       for i in range(4)]
            assert [f.result(timeout=60.0) for f in futures] == [0, 1, 2, 3]
            assert pool.stats_snapshot().redispatched == 0
        finally:
            executor.discard()

    def test_malformed_handshake_rejected_pool_unharmed(self, scheduler):
        executor = scheduler.executor()
        assert isinstance(executor, RemoteExecutor)
        pool = executor.pool()
        pool.wait_for_workers(1, timeout=60.0)
        before = pool.stats_snapshot().rejected_connections
        host, port = wire.parse_address(pool.address)

        # A stray client speaking garbage instead of a HELLO frame.
        with socket.create_connection((host, port), timeout=5.0) as stray:
            stray.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 64)
        # A well-framed client whose first message is not HELLO.
        with socket.create_connection((host, port), timeout=5.0) as stray:
            wire.send_frame(stray, wire.MSG_RESULT, wire.dump_payload((1, True, 2)))

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if pool.stats_snapshot().rejected_connections >= before + 2:
                break
            time.sleep(0.05)
        assert pool.stats_snapshot().rejected_connections >= before + 2

        # The pool still serves real work afterwards.
        assert pool.submit(square_sum, [1, 2, 3]).result(timeout=30.0) == 14

    def test_shut_down_pool_refuses_submissions(self):
        executor = RemoteExecutor(workers=1, heartbeat_s=1.9)
        pool = executor.pool()
        assert pool.submit(square_sum, [2]).result(timeout=60.0) == 4
        executor.discard()
        from repro.graph.remote import RemoteExecutionError
        with pytest.raises(RemoteExecutionError):
            pool.submit(square_sum, [2])


# --------------------------------------------------------------------------- #
# Cache interplay
# --------------------------------------------------------------------------- #
class TestCacheInterplay:
    def test_warm_replay_ships_zero_bundles_and_bytes(self):
        cache = TaskCache()
        scheduler = RemoteScheduler(workers=2, cache=cache)
        try:
            cold = chunked_graph().compute(scheduler=scheduler)
            assert scheduler.last_run.shipped > 0
            assert scheduler.last_run.shipped_bytes > 0
            warm = chunked_graph().compute(scheduler=scheduler)
            assert warm == cold
            run = scheduler.last_run
            assert run.executed == 0
            assert run.cache_hits > 0
            assert run.shipped == 0
            assert run.shipped_bytes == 0
            assert run.bytes_received == 0
        finally:
            scheduler.close()

    def test_warm_replay_without_pool_ships_nothing(self):
        # A fully warm run must not even start workers: a scheduler whose
        # every task is served from cache reports zero wire traffic from a
        # pool that was never created.
        cache = TaskCache()
        warm_scheduler = RemoteScheduler(workers=2, cache=cache,
                                         heartbeat_s=1.7)
        cold_scheduler = RemoteScheduler(workers=2, cache=cache)
        try:
            cold = chunked_graph().compute(scheduler=cold_scheduler)
            assert chunked_graph().compute(scheduler=warm_scheduler) == cold
            run = warm_scheduler.last_run
            assert run.shipped == 0 and run.shipped_bytes == 0
            executor = warm_scheduler.executor()
            assert isinstance(executor, RemoteExecutor)
            assert executor.pool(create=False) is None, \
                "a fully cached run must not spawn workers"
        finally:
            warm_scheduler.close()
            cold_scheduler.close()
