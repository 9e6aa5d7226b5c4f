"""Real distributed execution: the socket-based remote scheduler backend.

This module retires the Figure 6(c) *simulation* in
:mod:`repro.graph.cluster`: instead of modelling an N-worker cluster with an
analytical formula, :class:`RemoteScheduler` actually runs the partitioned
EDA pipeline on N worker **processes** that speak a TCP protocol
(:mod:`repro.graph.wire`) — spawned locally as subprocesses, attached from
other hosts, or both.

Topology
--------
The coordinator (the process calling ``plot``/``create_report``) binds a
listening socket.  Workers connect *to* it, pass an HMAC
challenge-response handshake (``CHALLENGE``/``HELLO``/``WELCOME``, see
the trust model in :mod:`repro.graph.wire`), and then serve ``TASK``
frames until they receive ``SHUTDOWN`` or the connection drops.  Local
workers are spawned with ``python -m repro.graph.remote --connect
HOST:PORT`` and inherit the pool's secret via the
``REPRO_REMOTE_AUTHKEY`` environment variable; a worker on another
machine is attached by running the exact same command — with the same
key exported — against a coordinator bound to a routable address
(``compute.remote.bind`` + ``compute.remote.authkey``).  Authentication
proves the key, it does not encrypt: only bind routable addresses on
networks you trust.

What ships is exactly what the in-process pool ships: ``Task.shippable``
says which tasks are value-picklable, and shippable chunk parses travel as
bundles (parse + the sketches consuming it) so only small mergeable sketch
states come back over the wire.  Multi-file sources shard **per file**: a
bundle whose parse task declares a path as its ``affinity`` is pinned to the
worker that served that path before, so each worker re-reads (and keeps the
disk-sidecar warm set of) its own file subset.  Pinning only engages when
the scan actually spans multiple files (a single-file scan round-robins its
chunks across every worker) and spills to the least-loaded worker when the
pinned owner's queue backs up, so affinity never serializes a run.

Failure semantics
-----------------
* every frame is length-prefixed and checksummed; a malformed frame from a
  worker poisons only that connection, and a stray client that fails the
  challenge-response handshake is rejected before anything it sent is
  deserialized and without disturbing the run;
* the coordinator pings workers on a heartbeat and treats silence (or an
  *executing* task — the worker reports execution start with a
  ``STARTED`` frame — outliving ``compute.remote.timeout_s``) as a
  dead/wedged worker:
  the connection is closed, a spawned worker is respawned, and the
  worker's in-flight bundles are **re-dispatched** to a live worker.
  Bundles are pure functions of their arguments (the same idempotent
  task-key contract the cross-call cache relies on), so a re-run cannot
  change the result and a result arriving twice is absorbed at most once;
* a bundle that crashes ``MAX_ATTEMPTS`` workers in a row is reported as a
  :class:`~repro.errors.SchedulerError` naming the root task — never a
  hang;
* shutdown drains: in-flight results are collected (bounded wait), then
  workers receive ``SHUTDOWN`` and local processes are reaped.

Like the in-process pools, remote pools are **process-wide** — schedulers
are rebuilt per EDA call, and respawning (re-importing numpy in) the workers on
every interactive call would dominate the session.  Pools are keyed by
their full configuration and reaped atexit; :func:`shutdown_remote_pools`
tears them down explicitly (tests, benchmarks).
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue
import secrets
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import GraphError
from repro.graph import wire
from repro.graph.cache import TaskCache
from repro.graph.executor import Executor, _portable_error
from repro.graph.scheduler import ProcessScheduler
from repro.utils import default_worker_count

#: Default coordinator bind address; port 0 means "any free port".  Bind to
#: a routable address (e.g. ``"0.0.0.0:8786"``) to let workers on other
#: hosts attach.
DEFAULT_BIND = "127.0.0.1:0"

#: Seconds between coordinator PINGs (and the granularity of timeout checks).
DEFAULT_HEARTBEAT_S = 2.0

#: A task in flight longer than this marks its worker as wedged and is
#: re-dispatched.  Per *task* (one chunk bundle), not per run.
DEFAULT_TIMEOUT_S = 30.0

#: How long the first submit may wait for at least one worker to connect.
CONNECT_TIMEOUT_S = 60.0

#: A bundle that took this many workers down is reported as failed.
MAX_ATTEMPTS = 3

#: Bounded wait for in-flight results during a graceful shutdown.
DRAIN_TIMEOUT_S = 10.0

#: Environment variable carrying the shared handshake secret.  Spawned
#: workers inherit the pool's key through it automatically; workers
#: attached from other hosts must export the coordinator's configured
#: ``compute.remote.authkey`` under this name.
AUTHKEY_ENV = "REPRO_REMOTE_AUTHKEY"

#: A pinned (file-affinity) bundle whose owner already has this many
#: bundles in flight spills to the least-loaded worker instead of queuing
#: behind its warm-cache owner.
AFFINITY_SPILL_INFLIGHT = 4


class RemoteExecutionError(GraphError):
    """The remote pool could not complete a dispatched bundle."""


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def worker_main(host: str, port: int, worker_id: Optional[str] = None,
                authkey: Optional[str] = None) -> None:
    """Run one worker: connect to the coordinator and serve task frames.

    The handshake is mutual: the worker answers the coordinator's
    ``CHALLENGE`` inside its ``HELLO`` and refuses to serve a coordinator
    whose ``WELCOME`` cannot answer the worker's counter-nonce — task
    frames carry pickled callables, so an unauthenticated "coordinator"
    would mean arbitrary code execution on the worker.

    The receive loop runs on a background thread so PINGs are answered even
    while a task computes; the main thread executes tasks strictly in
    arrival order, reporting each execution start with a ``STARTED`` frame
    (which is what scopes the coordinator's per-task timeout to the task
    actually running, not to queue wait).  Any wire-level failure
    (coordinator gone, corrupted stream) ends the worker — the coordinator
    re-dispatches whatever this worker still owed.
    """
    if authkey is None:
        authkey = os.environ.get(AUTHKEY_ENV)
    if not authkey:
        raise SystemExit(
            f"remote worker: no shared secret; set the {AUTHKEY_ENV} "
            f"environment variable to the coordinator's "
            f"compute.remote.authkey")
    try:
        sock = socket.create_connection((host, port), timeout=30.0)
    except OSError as error:
        # The coordinator may already be gone (short run, slow spawn);
        # exit quietly instead of leaving a traceback on the user's tty.
        raise SystemExit(
            f"remote worker: cannot reach coordinator at "
            f"{host}:{port}: {error}") from None
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    name = worker_id or f"worker-{os.getpid()}"
    try:
        sock.settimeout(30.0)
        msg_type, nonce = wire.recv_frame(sock)
        if msg_type != wire.MSG_CHALLENGE:
            raise wire.WireError("coordinator did not open with CHALLENGE")
        counter_nonce = secrets.token_bytes(wire.NONCE_BYTES)
        with send_lock:
            wire.send_frame(sock, wire.MSG_HELLO, wire.dump_json(
                {"id": name, "pid": os.getpid(),
                 "host": socket.gethostname(),
                 "digest": wire.compute_digest(authkey, nonce),
                 "nonce": counter_nonce.hex()}))
        msg_type, payload = wire.recv_frame(sock)
        welcome = wire.load_json(payload) if msg_type == wire.MSG_WELCOME \
            else None
        if not isinstance(welcome, dict) or not wire.verify_digest(
                authkey, counter_nonce, welcome.get("digest")):
            raise wire.WireError("coordinator failed authentication")
    except (wire.WireError, OSError) as error:
        try:
            sock.close()
        except OSError:
            pass
        raise SystemExit(
            f"remote worker: handshake with {host}:{port} failed: "
            f"{error}") from None
    sock.settimeout(None)
    tasks: "queue.SimpleQueue[Optional[bytes]]" = queue.SimpleQueue()

    def receive() -> None:
        while True:
            try:
                msg_type, payload = wire.recv_frame(sock)
            except (wire.WireError, OSError):
                tasks.put(None)
                return
            if msg_type == wire.MSG_PING:
                try:
                    with send_lock:
                        wire.send_frame(sock, wire.MSG_PONG)
                except OSError:
                    tasks.put(None)
                    return
            elif msg_type == wire.MSG_TASK:
                tasks.put(payload)
            elif msg_type == wire.MSG_SHUTDOWN:
                tasks.put(None)
                return
            # HELLO/RESULT from the coordinator are protocol violations;
            # ignoring them beats dying over a confused peer.

    receiver = threading.Thread(target=receive, daemon=True,
                                name=f"repro-remote-recv-{name}")
    receiver.start()
    try:
        while True:
            payload = tasks.get()
            if payload is None:
                return
            try:
                task_id, func, args = wire.load_payload(payload)
            except wire.WireError:
                return                      # stream no longer trustworthy
            try:
                with send_lock:
                    wire.send_frame(sock, wire.MSG_STARTED,
                                    wire.dump_json({"task": task_id}))
            except OSError:
                return
            try:
                value = func(*args)
                blob = wire.dump_payload((task_id, True, value))
            except BaseException as error:  # noqa: BLE001 - reported upstream
                blob = wire.dump_payload((task_id, False,
                                          _portable_error(error)))
            try:
                with send_lock:
                    wire.send_frame(sock, wire.MSG_RESULT, blob)
            except OSError:
                return
    finally:
        try:
            sock.close()
        except OSError:
            pass


def main(argv: Optional[List[str]] = None) -> None:
    """CLI entry point: ``python -m repro.graph.remote --connect HOST:PORT``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.graph.remote",
        description="Start one repro remote-execution worker and attach it "
                    "to a coordinator.  The shared handshake secret is read "
                    f"from the {AUTHKEY_ENV} environment variable (export "
                    "the coordinator's compute.remote.authkey; never passed "
                    "on the command line, where it would leak via ps).")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="address the coordinator is listening on")
    parser.add_argument("--id", default=None,
                        help="worker name reported to the coordinator")
    args = parser.parse_args(argv)
    host, port = wire.parse_address(args.connect)
    worker_main(host, port, worker_id=args.id)


# --------------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------------- #
@dataclass
class PoolStats:
    """Cumulative wire/work accounting of one remote pool."""

    shipped_bytes: int = 0
    bytes_received: int = 0
    redispatched: int = 0
    rejected_connections: int = 0
    worker_busy_s: Dict[str, float] = field(default_factory=dict)
    worker_tasks: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "PoolStats":
        return PoolStats(self.shipped_bytes, self.bytes_received,
                         self.redispatched, self.rejected_connections,
                         dict(self.worker_busy_s), dict(self.worker_tasks))


class _PendingTask:
    """One submitted callable, tracked until its future resolves."""

    __slots__ = ("task_id", "func", "args", "future", "affinity",
                 "dispatched_at", "started_at", "attempts", "worker")

    def __init__(self, task_id: int, func: Callable[..., Any],
                 args: Tuple[Any, ...], affinity: Optional[str]):
        self.task_id = task_id
        self.func = func
        self.args = args
        self.future: Future = Future()
        self.affinity = affinity
        self.dispatched_at = 0.0
        self.started_at = 0.0       # set by the worker's STARTED frame
        self.attempts = 0
        self.worker: Optional[str] = None


class _WorkerLink:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("id", "sock", "send_lock", "process", "alive", "last_seen",
                 "last_ping", "inflight")

    def __init__(self, worker_id: str, sock: socket.socket,
                 process: Optional[subprocess.Popen]):
        self.id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.process = process
        self.alive = True
        self.last_seen = time.monotonic()
        self.last_ping = 0.0
        self.inflight: Dict[int, _PendingTask] = {}


def _resolve_future(future: Future, ok: bool, value: Any) -> None:
    """Complete a future exactly once, tolerating cancellation races."""
    try:
        if future.done():
            return
        if ok:
            future.set_result(value)
        elif isinstance(value, BaseException):
            future.set_exception(value)
        else:
            future.set_exception(RemoteExecutionError(str(value)))
    except Exception:       # cancelled between the check and the set
        pass


class _RemotePool:
    """A live set of socket workers plus the dispatch/monitor machinery."""

    def __init__(self, spawn_workers: int, bind: str = DEFAULT_BIND,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 authkey: Optional[str] = None):
        self.spawn_workers = int(spawn_workers)
        self.heartbeat_s = float(heartbeat_s)
        self.timeout_s = float(timeout_s)
        # Without a configured key the pool mints a random one: spawned
        # workers inherit it via the environment, and nothing else can
        # pass the handshake — locked-down by default.  Attach mode needs
        # an explicit shared key on both sides (compute.remote.authkey on
        # the coordinator, REPRO_REMOTE_AUTHKEY on the workers).
        self.authkey = authkey or secrets.token_hex(32)
        self.stats = PoolStats()
        self._lock = threading.Lock()
        self._workers_changed = threading.Condition(self._lock)
        self._workers: Dict[str, _WorkerLink] = {}
        self._unassigned: deque = deque()
        self._pending: Dict[int, _PendingTask] = {}
        self._affinity: Dict[str, str] = {}      # affinity key -> worker id
        self._task_ids = itertools.count(1)
        self._name_seq = itertools.count(1)
        self._spawn_seq = itertools.count(1)
        self._procs: Dict[int, subprocess.Popen] = {}    # child pid -> handle
        self._closed = False
        self._started_at = time.monotonic()
        self._respawn_budget = 2 * self.spawn_workers + 2

        host, port = wire.parse_address(bind)
        self._listener = socket.create_server((host, port), backlog=16)
        self._listener.settimeout(0.5)
        bound_host, bound_port = self._listener.getsockname()[:2]
        #: The address workers connect to (``host:port``; spawn-time truth).
        self.address = f"{host or bound_host}:{bound_port}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-remote-accept")
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, daemon=True, name="repro-remote-monitor")
        self._monitor_thread.start()
        for _ in range(self.spawn_workers):
            self._spawn_local_worker()

    # -- worker lifecycle ------------------------------------------------ #
    def _spawn_local_worker(self) -> None:
        """Start one local worker subprocess pointed at this pool."""
        # Task functions pickle by reference, so the child must be able to
        # import every module the coordinator can — including modules made
        # importable by sys.path manipulation (pytest rootdirs, scripts).
        # Propagate the full resolved sys.path, the way multiprocessing's
        # spawn context does, with this package's root in front.
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        entries = [src_root] + [entry for entry in sys.path
                                if entry and entry != src_root]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(entries)
        env[AUTHKEY_ENV] = self.authkey
        name = f"local-{os.getpid()}-{next(self._spawn_seq)}"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.graph.remote",
             "--connect", self.address, "--id", name],
            env=env, stdout=subprocess.DEVNULL)
        # Re-associated with its link at HELLO time via the pid the worker
        # reports; kept here so shutdown can reap children that never
        # finished connecting.
        self._procs[process.pid] = process

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._handshake(conn)

    def _handshake(self, conn: socket.socket) -> None:
        """Admit a worker (authenticated HELLO) or reject the connection.

        Nothing a client sends is unpickled before it proves the shared
        key: the HELLO answer to our CHALLENGE nonce is JSON, and a
        missing or wrong HMAC digest rejects the connection outright.
        The WELCOME reply answers the worker's counter-nonce so the
        worker, in turn, never accepts task frames (pickled callables!)
        from a coordinator that does not hold the key.
        """
        try:
            conn.settimeout(5.0)
            nonce = secrets.token_bytes(wire.NONCE_BYTES)
            wire.send_frame(conn, wire.MSG_CHALLENGE, nonce)
            msg_type, payload = wire.recv_frame(conn)
            if msg_type != wire.MSG_HELLO:
                raise wire.WireError("first frame must be HELLO")
            hello = wire.load_json(payload)
            if not isinstance(hello, dict) or not wire.verify_digest(
                    self.authkey, nonce, hello.get("digest")):
                raise wire.WireError("authentication failed")
            declared = str(hello["id"])
            counter_nonce = bytes.fromhex(str(hello["nonce"]))
            wire.send_frame(conn, wire.MSG_WELCOME, wire.dump_json(
                {"digest": wire.compute_digest(self.authkey, counter_nonce)}))
        except (wire.WireError, OSError, KeyError, TypeError, ValueError):
            with self._lock:
                self.stats.rejected_connections += 1
            try:
                conn.close()
            except OSError:
                pass
            return
        conn.settimeout(None)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            if self._closed:
                conn.close()
                return
            worker_id = declared
            if worker_id in self._workers:
                worker_id = f"{declared}#{next(self._name_seq)}"
            link = _WorkerLink(worker_id, conn,
                               process=self._procs.get(hello.get("pid")))
            self._workers[worker_id] = link
            self.stats.worker_busy_s.setdefault(worker_id, 0.0)
            self.stats.worker_tasks.setdefault(worker_id, 0)
            self._pump_locked()
            self._workers_changed.notify_all()
        threading.Thread(target=self._serve_worker, args=(link,), daemon=True,
                         name=f"repro-remote-serve-{worker_id}").start()

    def _serve_worker(self, link: _WorkerLink) -> None:
        """Receive loop of one worker connection."""
        while True:
            try:
                msg_type, payload = wire.recv_frame(link.sock)
            except (wire.WireError, OSError) as error:
                with self._lock:
                    self._lose_worker_locked(link, str(error))
                return
            if msg_type == wire.MSG_RESULT:
                try:
                    task_id, ok, value = wire.load_payload(payload)
                except wire.WireError as error:
                    with self._lock:
                        self._lose_worker_locked(link, str(error))
                    return
                now = time.monotonic()
                with self._lock:
                    if not link.alive:
                        return
                    link.last_seen = now
                    self.stats.bytes_received += len(payload) + 13
                    task = link.inflight.pop(task_id, None)
                    if task is not None:
                        self._pending.pop(task_id, None)
                        self.stats.worker_busy_s[link.id] = \
                            self.stats.worker_busy_s.get(link.id, 0.0) + \
                            (now - (task.started_at or task.dispatched_at))
                        self.stats.worker_tasks[link.id] = \
                            self.stats.worker_tasks.get(link.id, 0) + 1
                        self._pump_locked()
                # Resolve outside the lock; a done/duplicate future is a
                # no-op, which is the at-most-once absorption guarantee.
                if task is not None:
                    _resolve_future(task.future, ok, value)
            elif msg_type == wire.MSG_STARTED:
                try:
                    started = wire.load_json(payload)
                    task_id = started["task"]
                except (wire.WireError, KeyError, TypeError) as error:
                    with self._lock:
                        self._lose_worker_locked(link, str(error))
                    return
                with self._lock:
                    link.last_seen = time.monotonic()
                    # Absent after a timeout re-dispatch moved the task
                    # elsewhere; a stale start notice is not an error.
                    task = link.inflight.get(task_id)
                    if task is not None:
                        task.started_at = link.last_seen
            elif msg_type == wire.MSG_PONG:
                with self._lock:
                    link.last_seen = time.monotonic()
            else:
                with self._lock:
                    self._lose_worker_locked(
                        link, f"unexpected message type {msg_type}")
                return

    def _lose_worker_locked(self, link: _WorkerLink, reason: str) -> None:
        """Mark a worker dead, re-dispatch its bundles, respawn if local."""
        if not link.alive:
            return
        link.alive = False
        self._workers.pop(link.id, None)
        for key in [key for key, owner in self._affinity.items()
                    if owner == link.id]:
            del self._affinity[key]
        try:
            link.sock.close()
        except OSError:
            pass
        if link.process is not None:
            try:
                link.process.terminate()
            except OSError:
                pass
        orphaned = list(link.inflight.values())
        link.inflight.clear()
        failed: List[_PendingTask] = []
        for task in orphaned:
            if task.attempts >= MAX_ATTEMPTS:
                self._pending.pop(task.task_id, None)
                failed.append(task)
            else:
                self.stats.redispatched += 1
                self._unassigned.appendleft(task)
        if not self._closed and self._is_local_name(link.id) and \
                self._respawn_budget > 0:
            self._respawn_budget -= 1
            self._spawn_local_worker()
        self._pump_locked()
        self._workers_changed.notify_all()
        for task in failed:
            _resolve_future(task.future, False, RemoteExecutionError(
                f"bundle failed on {task.attempts} workers "
                f"(last worker {link.id!r} lost: {reason})"))

    @staticmethod
    def _is_local_name(worker_id: str) -> bool:
        return worker_id.startswith(f"local-{os.getpid()}-")

    # -- dispatch --------------------------------------------------------- #
    def submit(self, func: Callable[..., Any], *args: Any,
               affinity: Optional[str] = None) -> Future:
        """Enqueue ``func(*args)`` for a worker; returns its future."""
        with self._lock:
            if self._closed:
                raise RemoteExecutionError("remote pool is shut down")
            task = _PendingTask(next(self._task_ids), func, tuple(args),
                                affinity)
            self._pending[task.task_id] = task
            self._unassigned.append(task)
            self._pump_locked()
        return task.future

    def _pick_worker_locked(self, affinity: Optional[str]
                            ) -> Optional[_WorkerLink]:
        if not self._workers:
            return None
        least = min(self._workers.values(), key=lambda w: len(w.inflight))
        if affinity is not None:
            owner = self._affinity.get(affinity)
            if owner is not None and owner in self._workers:
                link = self._workers[owner]
                # Honor the pin while the owner keeps up; once its queue
                # backs up, spill to the least-loaded worker (without
                # re-pinning — later bundles of the file return to the
                # owner's warm caches when it drains).
                if len(link.inflight) < AFFINITY_SPILL_INFLIGHT or \
                        len(least.inflight) >= len(link.inflight):
                    return link
                return least
            self._affinity[affinity] = least.id
        return least

    def _pump_locked(self) -> None:
        """Assign queued tasks to live workers (affinity, then least-loaded)."""
        while self._unassigned:
            link = self._pick_worker_locked(self._unassigned[0].affinity)
            if link is None:
                return
            task = self._unassigned.popleft()
            self._dispatch_locked(link, task)

    def _dispatch_locked(self, link: _WorkerLink, task: _PendingTask) -> None:
        task.attempts += 1
        task.worker = link.id
        task.dispatched_at = time.monotonic()
        task.started_at = 0.0       # not executing until STARTED arrives
        link.inflight[task.task_id] = task
        try:
            blob = wire.dump_payload((task.task_id, task.func, task.args))
            with link.send_lock:
                sent = wire.send_frame(link.sock, wire.MSG_TASK, blob)
            self.stats.shipped_bytes += sent
        except (wire.WireError, OSError, Exception) as error:  # noqa: BLE001
            # Unpicklable payloads raise here too; losing the worker would
            # be wrong for those, so fail the task when pickling broke and
            # lose the worker only on transport errors.
            link.inflight.pop(task.task_id, None)
            if isinstance(error, OSError):
                self._unassigned.appendleft(task)
                self.stats.redispatched += 1
                task.attempts -= 1
                self._lose_worker_locked(link, f"send failed: {error}")
            else:
                self._pending.pop(task.task_id, None)
                _resolve_future(task.future, False, RemoteExecutionError(
                    f"bundle could not be serialized: {error}"))

    # -- liveness --------------------------------------------------------- #
    def _monitor_loop(self) -> None:
        # The short sleep keeps timeout detection timely; PINGs themselves
        # go out at the configured heartbeat cadence (last_ping below).
        while not self._closed:
            time.sleep(min(self.heartbeat_s, 0.5))
            now = time.monotonic()
            dead_after = max(3.0 * self.heartbeat_s, 5.0)
            with self._lock:
                if self._closed:
                    return
                for link in list(self._workers.values()):
                    # Only a task the worker reported as *executing* can
                    # trip the timeout — workers run their queue serially,
                    # so a bundle waiting behind a slow-but-healthy one
                    # accrues queue time, not execution time.
                    overdue = [task for task in link.inflight.values()
                               if task.started_at
                               and now - task.started_at > self.timeout_s]
                    if overdue:
                        self._lose_worker_locked(
                            link, f"task exceeded the {self.timeout_s:.1f}s "
                                  f"timeout")
                        continue
                    if now - link.last_seen > dead_after:
                        self._lose_worker_locked(link, "heartbeat timeout")
                        continue
                    if now - link.last_ping < self.heartbeat_s:
                        continue
                    link.last_ping = now
                    try:
                        with link.send_lock:
                            wire.send_frame(link.sock, wire.MSG_PING)
                    except OSError as error:
                        self._lose_worker_locked(link, f"ping failed: {error}")
                if not self._workers and self._pending and \
                        self._respawn_budget <= 0:
                    self._fail_all_locked("every remote worker was lost and "
                                          "the respawn budget is exhausted")
                elif not self._workers and self._unassigned and \
                        now - self._started_at > CONNECT_TIMEOUT_S:
                    self._fail_all_locked(
                        f"no remote worker connected within "
                        f"{CONNECT_TIMEOUT_S:.0f}s of pool startup")

    def _fail_all_locked(self, reason: str) -> None:
        tasks = list(self._pending.values())
        self._pending.clear()
        self._unassigned.clear()
        for task in tasks:
            _resolve_future(task.future, False, RemoteExecutionError(reason))

    # -- introspection ---------------------------------------------------- #
    def wait_for_workers(self, count: int, timeout: float = CONNECT_TIMEOUT_S
                         ) -> int:
        """Block until *count* workers are connected (or timeout); returns
        the connected count."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._workers_changed.wait(remaining)
            return len(self._workers)

    def worker_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def worker_count(self) -> int:
        """How many workers are connected right now (spawned + attached)."""
        with self._lock:
            return len(self._workers)

    def stats_snapshot(self) -> PoolStats:
        with self._lock:
            return self.stats.copy()

    # -- shutdown --------------------------------------------------------- #
    def shutdown(self, drain_timeout_s: float = DRAIN_TIMEOUT_S) -> None:
        """Drain in-flight work (bounded), stop workers, close sockets."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + drain_timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending:
                    break
            time.sleep(0.02)
        with self._lock:
            links = list(self._workers.values())
            self._workers.clear()
            self._fail_all_locked("remote pool shut down")
            self._workers_changed.notify_all()
        for link in links:
            link.alive = False
            try:
                with link.send_lock:
                    wire.send_frame(link.sock, wire.MSG_SHUTDOWN)
            except OSError:
                pass
            try:
                link.sock.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        # Reap every spawned child, including any that never finished
        # connecting (their connect fails once the listener is gone).
        for process in self._procs.values():
            try:
                process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        self._procs.clear()


# --------------------------------------------------------------------------- #
# Process-wide pool sharing (mirrors ProcessExecutor's shared pools)
# --------------------------------------------------------------------------- #
_SHARED_POOLS: Dict[Tuple, _RemotePool] = {}
_SHARED_LOCK = threading.Lock()


def _pool_key(workers: int, bind: str, heartbeat_s: float,
              timeout_s: float, authkey: Optional[str]) -> Tuple:
    return (int(workers), str(bind), float(heartbeat_s), float(timeout_s),
            authkey)


def shutdown_remote_pools() -> None:
    """Tear down every shared remote pool (tests, benchmarks, atexit)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_remote_pools)


class RemoteExecutor(Executor):
    """Executor running payloads on a shared pool of socket workers.

    ``workers`` local subprocesses are spawned on first use (0 with an
    externally-bound address means "attached workers only").  Pools are
    process-wide, keyed by their full configuration: schedulers are rebuilt
    per EDA call and workers must not be respawned each time.  ``close``
    is therefore a no-op and ``discard`` (after a pool-level failure)
    drops the shared pool so the next submit starts fresh.
    """

    name = "remote"

    def __init__(self, max_workers: Optional[int] = None,
                 workers: Optional[int] = None, bind: str = DEFAULT_BIND,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 authkey: Optional[str] = None):
        super().__init__(max_workers)
        self.workers = self.max_workers if workers is None else int(workers)
        self.bind = str(bind)
        self.heartbeat_s = float(heartbeat_s)
        self.timeout_s = float(timeout_s)
        self.authkey = authkey
        self._key = _pool_key(self.workers, self.bind, self.heartbeat_s,
                              self.timeout_s, self.authkey)

    def pool(self, create: bool = True) -> Optional[_RemotePool]:
        """The shared pool backing this executor (started on demand)."""
        with _SHARED_LOCK:
            pool = _SHARED_POOLS.get(self._key)
            if pool is None and create:
                pool = _RemotePool(self.workers, bind=self.bind,
                                   heartbeat_s=self.heartbeat_s,
                                   timeout_s=self.timeout_s,
                                   authkey=self.authkey)
                _SHARED_POOLS[self._key] = pool
            return pool

    def submit(self, fn: Callable[..., Any], *args: Any,
               affinity: Optional[str] = None) -> Future:
        return self.pool().submit(fn, *args, affinity=affinity)

    def stats_snapshot(self) -> PoolStats:
        pool = self.pool(create=False)
        return pool.stats_snapshot() if pool is not None else PoolStats()

    def discard(self) -> None:
        with _SHARED_LOCK:
            pool = _SHARED_POOLS.pop(self._key, None)
        if pool is not None:
            pool.shutdown()

    def close(self) -> None:
        """No-op: the pool is shared process-wide (see the class docstring)."""


class RemoteScheduler(ProcessScheduler):
    """Scheduler dispatching bundles to socket workers (the Fig 6(c) backend).

    Planning is inherited unchanged from :class:`ProcessScheduler` — the
    same hybrid dispatch and ``Task.shippable`` contract — so results
    are bit-identical across the synchronous/threaded/process/remote
    backends; only *where* shippable bundles run differs.  On top of the
    shared RunStats this backend reports ``shipped_bytes`` /
    ``bytes_received`` (wire traffic), ``redispatched`` (bundles re-run
    after a worker loss) and per-worker utilization.
    """

    name = "remote"

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Optional[TaskCache] = None,
                 workers: Optional[int] = None, bind: str = DEFAULT_BIND,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 authkey: Optional[str] = None):
        if workers is None:
            workers = max_workers if max_workers is not None \
                else default_worker_count()
        super().__init__(max_workers=int(workers), cache=cache)
        self.bind = str(bind)
        self.heartbeat_s = float(heartbeat_s)
        self.timeout_s = float(timeout_s)
        self.authkey = authkey

    def _make_executor(self) -> Executor:
        return RemoteExecutor(max_workers=self.max_workers,
                              workers=self.max_workers, bind=self.bind,
                              heartbeat_s=self.heartbeat_s,
                              timeout_s=self.timeout_s,
                              authkey=self.authkey)

    def _inflight_cap(self) -> int:
        # Keep every worker fed while results are in transit: one bundle
        # computing plus one queued per worker, instead of the in-process
        # pools' one-in-flight-per-worker window.  The count is the live
        # connected-worker population, not the spawn request — in
        # attach-only mode (workers=0) the spawn count is zero while real
        # workers keep joining from other hosts, and the driver loop
        # re-reads the cap every iteration so it widens as they do.
        live = 0
        executor = self._executor
        if isinstance(executor, RemoteExecutor):
            pool = executor.pool(create=False)
            if pool is not None:
                live = pool.worker_count()
        return max(2, 2 * max(self.max_workers, live))

    def execute(self, graph: Any, outputs: Any) -> Dict[str, Any]:
        executor = self.executor()
        assert isinstance(executor, RemoteExecutor)
        before = executor.stats_snapshot()
        started = time.monotonic()
        results = super().execute(graph, outputs)
        elapsed = max(time.monotonic() - started, 1e-9)
        after = executor.stats_snapshot()
        run = self.last_run
        run.shipped_bytes += after.shipped_bytes - before.shipped_bytes
        run.bytes_received += after.bytes_received - before.bytes_received
        run.redispatched += after.redispatched - before.redispatched
        run.worker_utilization = {
            worker_id: min(1.0, (busy - before.worker_busy_s.get(
                worker_id, 0.0)) / elapsed)
            for worker_id, busy in after.worker_busy_s.items()}
        return results


__all__ = [
    "AFFINITY_SPILL_INFLIGHT",
    "AUTHKEY_ENV",
    "CONNECT_TIMEOUT_S",
    "DEFAULT_BIND",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_TIMEOUT_S",
    "MAX_ATTEMPTS",
    "PoolStats",
    "RemoteExecutionError",
    "RemoteExecutor",
    "RemoteScheduler",
    "main",
    "shutdown_remote_pools",
    "worker_main",
]


if __name__ == "__main__":      # pragma: no cover - exercised via subprocess
    main()
