"""One-worker-thread-per-rank transport (``transport="threads"``).

The only real-worker backend: it runs the drivers' pure-thunk parallel
regions concurrently in one address space, with the same counters
:class:`~repro.machine.simulator.CommStats` reports for the simulator
(flops, messages, words, barriers, collectives) but no virtual clock —
``elapsed()`` is real wall-clock time since construction.

Each rank gets a persistent worker thread fed through a task queue; a
``pardo`` dispatches one thunk per rank and collects completions under
the region supervisor (DESIGN.md §14): the coordinator polls the done
queue at ``supervision.poll_interval``, and a rank that delivers
neither its result nor a heartbeat within ``supervision.deadline``
seconds is declared :class:`~repro.machine.transport.WorkerHung` —
its thread is abandoned (a daemon; it receives a stop token for
whenever it wakes) and a fresh worker is respawned for the rank, so
the transport survives the failure and the region can be retried.
Point-to-point messages match on ``(src, dst, tag)`` through
condition-guarded mailboxes in the coordinator, exactly like the
simulator's — a worker-context ``recv`` genuinely blocks until the
matching ``send`` lands (with a deadlock timeout), and ``barrier``
called from worker context is a real :class:`threading.Barrier` across
the ranks participating in the current parallel region.

Payloads are delivered **by reference**: the ranks share one address
space, so a message is the object itself, exactly like the simulator's
default (non-``copy_payloads``) mode.  The drivers' read-shared /
write-own discipline (DESIGN.md §13) is what keeps this safe — thunks
never mutate coordinator state, they return updates that the
coordinator merges in rank order, which is also what makes the factors
bit-identical to the simulator's (and what makes region retry safe).
"""

from __future__ import annotations

import queue
import threading
import time
import warnings
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from .simulator import CommStats
from .supervision import (
    PortableFaultRuntime,
    RegionInjection,
    SupervisionPolicy,
    _InjectedWorkerCrash,
    _PoisonResult,
    wrap_injected_thunk,
)
from .transport import (
    SUPERVISED_FAILURES,
    ResultUnpicklable,
    Transport,
    TransportError,
    TransportSnapshot,
    WorkerCrashed,
    WorkerHung,
)

if TYPE_CHECKING:
    from ..faults import FaultJournal, FaultPlan
    from ..verify.trace import AccessTracer

__all__ = ["ThreadTransport"]

_STOP = object()


class ThreadTransport(Transport):
    """Real threaded execution of the SPMD drivers' parallel regions."""

    name = "threads"
    #: thunks share one address space and run concurrently — drivers must
    #: not share scratch state (accumulators) between region thunks
    concurrent_regions = True
    #: seconds a worker-context ``recv`` or ``barrier`` waits before
    #: declaring deadlock
    recv_timeout: float = 30.0
    #: seconds ``close()`` waits per worker before declaring it stuck
    close_join_timeout: float = 5.0

    def __init__(
        self,
        nranks: int,
        *,
        supervision: SupervisionPolicy | None = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self._flops = np.zeros(self.nranks, dtype=np.float64)
        self._mail: dict[tuple[int, int, Any], deque[tuple[Any, float]]] = defaultdict(deque)
        self._mail_lock = threading.Lock()
        self._mail_ready = threading.Condition(self._mail_lock)
        self._messages = 0
        self._words = 0.0
        self._barriers = 0
        self._collectives = 0
        self._t0 = time.perf_counter()
        self._closed = False
        # ranks never carry a tracer or a simulator fault runtime on a
        # real transport; portable faults live in the supervision layer
        self.tracer: AccessTracer | None = None
        self.faults = None
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self._fault_runtime: PortableFaultRuntime | None = (
            PortableFaultRuntime(faults) if faults is not None else None
        )
        self._region_recoveries = 0
        self._local = threading.local()
        self._done: queue.Queue = queue.Queue()
        self._region_barrier: threading.Barrier | None = None
        # last heartbeat (or dispatch) timestamp per rank; plain float
        # writes are atomic under the GIL, no lock needed
        self._beats = [0.0] * self.nranks
        self._tasks: list[queue.Queue] = []
        self._workers: list[threading.Thread] = []
        self._abandoned: list[tuple[int, threading.Thread]] = []
        self._stuck_ranks: list[int] = []
        for r in range(self.nranks):
            q: queue.Queue = queue.Queue()
            self._tasks.append(q)
            self._workers.append(self._spawn_worker(r, q))

    # -- identity ------------------------------------------------------

    @property
    def fault_journal(self) -> FaultJournal | None:
        """The portable-fault journal, when a plan is armed."""
        return self._fault_runtime.journal if self._fault_runtime is not None else None

    @property
    def region_recoveries(self) -> int:
        """Parallel regions re-executed after a supervised worker failure."""
        return self._region_recoveries

    @property
    def superstep(self) -> int:
        """Completed barriers + collectives (same clock as the simulator)."""
        return self._barriers + self._collectives

    def current_rank(self) -> int | None:
        """The rank of the calling worker thread (None in the coordinator)."""
        return getattr(self._local, "rank", None)

    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        return int(rank)

    # -- worker machinery ---------------------------------------------

    def _spawn_worker(self, rank: int, tasks: queue.Queue) -> threading.Thread:
        worker = threading.Thread(
            target=self._worker_loop,
            args=(rank, tasks),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        worker.start()
        return worker

    def _worker_loop(self, rank: int, tasks: queue.Queue) -> None:
        # the task queue is bound at spawn time: an abandoned worker keeps
        # draining its own (retired) queue and can never steal work from
        # the replacement thread that took over the rank
        self._local.rank = rank
        while True:
            task = tasks.get()
            if task is _STOP:
                return
            seq, thunk = task
            try:
                result = thunk()
            except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
                self._done.put((seq, rank, False, exc))
            else:
                self._done.put((seq, rank, True, result))

    def heartbeat(self) -> None:
        """Progress signal from a long-running thunk (worker context).

        Resets the calling rank's supervision deadline; a no-op in
        coordinator context and on the simulator, so drivers may call
        it unconditionally.
        """
        rank = self.current_rank()
        if rank is not None:
            self._beats[rank] = time.perf_counter()

    def _abandon_worker(self, rank: int) -> None:
        """Give up on a hung worker and respawn a fresh one for its rank.

        The hung thread is a daemon holding the *old* task queue: a stop
        token is queued so it exits whenever its thunk finally returns,
        and any late result it posts carries a stale region token and is
        discarded by the collector.
        """
        stale = self._workers[rank]
        self._abandoned.append((rank, stale))
        self._tasks[rank].put(_STOP)
        fresh: queue.Queue = queue.Queue()
        self._tasks[rank] = fresh
        self._workers[rank] = self._spawn_worker(rank, fresh)

    # -- parallel region ----------------------------------------------

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        """Run one thunk per rank under the region supervisor.

        Dispatches any armed portable faults, snapshots the transport
        counters, and runs one attempt of the region.  A supervised
        failure (:data:`SUPERVISED_FAILURES`: worker crashed / hung /
        result unpicklable) rolls the counters back and re-executes the
        whole region from the coordinator's intact state, up to
        ``supervision.region_retries`` times — safe and
        bit-reproducible because thunks are pure (read-shared /
        write-own, DESIGN.md §13/§14).  Application exceptions raised
        by a thunk are never retried.
        """
        if len(thunks) != self.nranks:
            raise ValueError(
                f"pardo expects one thunk per rank ({self.nranks}), got {len(thunks)}"
            )
        self._ensure_open()
        active = [r for r, f in enumerate(thunks) if f is not None]
        if not active:
            return [None] * self.nranks
        attempts = self.supervision.region_retries + 1
        for attempt in range(attempts):
            inject: dict[int, RegionInjection] = (
                self._fault_runtime.plan_region(active, self.superstep)
                if self._fault_runtime is not None
                else {}
            )
            snap = self.snapshot()
            try:
                return self._run_region(thunks, active, inject)
            except SUPERVISED_FAILURES as err:
                self.restore(snap, reason=f"region retry after {type(err).__name__}")
                if attempt + 1 >= attempts:
                    raise
                self._region_recoveries += 1
                if self._fault_runtime is not None:
                    self._fault_runtime.journal.record(
                        "region-retry",
                        superstep=self.superstep,
                        rank=err.rank,
                        detail=f"attempt {attempt + 1}: {type(err).__name__}",
                    )
        raise TransportError("unreachable")  # pragma: no cover

    def _run_region(
        self,
        thunks: Sequence[Callable[[], Any] | None],
        active: list[int],
        inject: dict[int, RegionInjection],
    ) -> list[Any]:
        """One supervised execution attempt of a region.

        Collects completions in arrival order; a failing rank's typed
        error is raised after every participant resolved (completed,
        failed, or was declared hung), so a failure cannot leave a
        worker wedged mid-region.
        """
        policy = self.supervision
        seq = object()  # unique token ties results to this region
        self._region_barrier = threading.Barrier(len(active)) if len(active) > 1 else None
        try:
            now = time.perf_counter()
            for r in active:
                self._beats[r] = now
                self._tasks[r].put((seq, wrap_injected_thunk(thunks[r], inject.get(r))))
            results: list[Any] = [None] * self.nranks
            failures: dict[int, Exception] = {}
            remaining = set(active)
            while remaining:
                timeout = None if policy.deadline is None else policy.poll_interval
                try:
                    got_seq, rank, ok, value = self._done.get(timeout=timeout)
                except queue.Empty:
                    pass
                else:
                    if got_seq is not seq or rank not in remaining:
                        continue  # stale result from an abandoned worker/region
                    remaining.discard(rank)
                    if ok:
                        if isinstance(value, _PoisonResult):
                            failures[rank] = ResultUnpicklable(
                                rank, "injected corrupt-result: payload undecodable"
                            )
                        else:
                            results[rank] = value
                    elif isinstance(value, _InjectedWorkerCrash):
                        failures[rank] = WorkerCrashed(
                            rank, "worker thread crashed (injected)",
                            remote_traceback=str(value),
                        )
                    elif isinstance(value, Exception):
                        failures[rank] = value  # application error: re-raise as-is
                    else:
                        failures[rank] = WorkerCrashed(
                            rank,
                            f"worker thread died on non-Exception {value!r}",
                            remote_traceback=repr(value),
                        )
                if policy.deadline is None:
                    continue
                now = time.perf_counter()
                hung = [r for r in sorted(remaining) if now - self._beats[r] > policy.deadline]
                for r in hung:
                    remaining.discard(r)
                    failures[r] = WorkerHung(r, policy.deadline)
                    self._abandon_worker(r)
                if hung and self._region_barrier is not None:
                    # siblings blocked on the region barrier must not wait
                    # out their own deadlines for a rank that will never
                    # arrive; their BrokenBarrierError is collateral and
                    # outranked by the WorkerHung when the region fails
                    self._region_barrier.abort()
            if failures:
                self._raise_region_failure(failures)
            return results
        finally:
            self._region_barrier = None

    def _raise_region_failure(self, failures: dict[int, Exception]) -> None:
        """Raise the failure that decides the region's fate.

        Supervised failures (the retryable taxonomy) take precedence
        over application errors and collateral transport errors (a
        broken barrier on a sibling rank of a crashed worker must not
        mask the crash); within a class, lowest rank first.
        """
        supervised = {
            r: e for r, e in failures.items() if isinstance(e, SUPERVISED_FAILURES)
        }
        pick = supervised if supervised else failures
        raise pick[min(pick)]

    # -- accounting (counters only; wall time is real) -----------------

    def compute(self, rank: int, flops: float) -> None:
        rank = self._check_rank(rank)
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self._flops[rank] += flops

    def advance(self, rank: int, seconds: float) -> None:
        self._check_rank(rank)
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        # wall time is real on this transport; the modelled charge is moot

    # -- point-to-point ------------------------------------------------

    def send(self, src: int, dst: int, payload: Any, nwords: float, tag: Any = None) -> None:
        src = self._check_rank(src)
        dst = self._check_rank(dst)
        if nwords < 0:
            raise ValueError("nwords must be non-negative")
        with self._mail_ready:
            self._mail[(src, dst, tag)].append((payload, float(nwords)))
            if src != dst:
                self._messages += 1
                self._words += nwords
            self._mail_ready.notify_all()

    def recv(self, dst: int, src: int, tag: Any = None) -> Any:
        dst = self._check_rank(dst)
        src = self._check_rank(src)
        key = (src, dst, tag)
        deadline = time.perf_counter() + self.recv_timeout
        with self._mail_ready:
            while True:
                box = self._mail.get(key)
                if box:
                    payload, _ = box.popleft()
                    return payload
                if self.current_rank() is None:
                    # coordinator context: a missing message is a protocol
                    # bug, exactly the simulator's hard deadlock error
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._mail_ready.wait(remaining)
        raise TransportError(
            f"deadlock: rank {dst} receives from {src} (tag={tag!r}) "
            "but no message was sent"
        )

    def exchange(
        self, messages: list[tuple[int, int, Any, float]], tag: Any = None
    ) -> dict[int, list[tuple[int, Any]]]:
        """Superstep all-to-some exchange; deterministic drain order."""
        for src, dst, payload, nwords in messages:
            self.send(src, dst, payload, nwords, tag=tag)
        out: dict[int, list[tuple[int, Any]]] = defaultdict(list)
        per_dst: dict[int, list[int]] = defaultdict(list)
        for src, dst, _, _ in messages:
            per_dst[dst].append(src)
        for dst in sorted(per_dst):
            for src in per_dst[dst]:
                out[dst].append((src, self.recv(dst, src, tag=tag)))
        return dict(out)

    # -- collectives ---------------------------------------------------

    def barrier(self) -> None:
        """Synchronise the ranks; counted once per barrier.

        In coordinator context (between regions) every rank is already
        synchronised.  In worker context the participants of the current
        region meet at a real :class:`threading.Barrier`, and exactly
        one of them (the one ``Barrier.wait`` hands index 0) counts it.
        """
        bar = self._region_barrier if self.current_rank() is not None else None
        if bar is not None:
            try:
                if bar.wait(timeout=self.recv_timeout) != 0:
                    return
            except threading.BrokenBarrierError as exc:
                raise TransportError(
                    "barrier broken: a participating rank failed or timed out"
                ) from exc
        self._barriers += 1

    def allreduce(self, values: np.ndarray | list, op: str = "sum") -> Any:
        arr = np.asarray(values)
        if arr.shape[0] != self.nranks:
            raise ValueError(
                f"allreduce expects one value per rank ({self.nranks}), got {arr.shape}"
            )
        self._collectives += 1
        if op == "sum":
            return arr.sum(axis=0)
        if op == "max":
            return arr.max(axis=0)
        if op == "min":
            return arr.min(axis=0)
        if op == "or":
            return np.logical_or.reduce(arr, axis=0)
        raise ValueError(f"unsupported allreduce op {op!r}")

    def allgather(self, values: list, nwords_each: float = 1.0) -> list:
        if len(values) != self.nranks:
            raise ValueError(
                f"allgather expects one payload per rank ({self.nranks}), got {len(values)}"
            )
        self._collectives += 1
        return list(values)

    # -- tracing hooks (free: no tracer ever on a real transport) ------

    def declare_read(self, rank: int, space: str, indices: int | Iterable[int]) -> None:
        pass

    def declare_write(self, rank: int, space: str, index: int) -> None:
        pass

    # -- checkpoint / restart ------------------------------------------

    def snapshot(self) -> TransportSnapshot:
        with self._mail_lock:
            return TransportSnapshot(
                flops=self._flops.copy(),
                mail={key: deque(box) for key, box in self._mail.items() if box},
                messages=self._messages,
                words=self._words,
                barriers=self._barriers,
                collectives=self._collectives,
            )

    def restore(self, snap: TransportSnapshot, *, reason: str = "") -> None:
        with self._mail_lock:
            self._flops[:] = snap.flops
            self._mail = defaultdict(
                deque, {key: deque(box) for key, box in snap.mail.items()}
            )
            self._messages = snap.messages
            self._words = snap.words
            self._barriers = snap.barriers
            self._collectives = snap.collectives

    # -- results -------------------------------------------------------

    def elapsed(self) -> float:
        """Real wall-clock seconds since the transport was created."""
        return time.perf_counter() - self._t0

    def utilization(self) -> np.ndarray:
        """Unknown on a real transport — reported as all-ones."""
        return np.ones(self.nranks)

    def pending_messages(self) -> int:
        with self._mail_lock:
            return sum(len(q) for q in self._mail.values())

    def stats(self) -> CommStats:
        return CommStats(
            nranks=self.nranks,
            total_flops=float(self._flops.sum()),
            messages=self._messages,
            words_sent=self._words,
            barriers=self._barriers,
            collectives=self._collectives,
            per_rank_flops=[float(f) for f in self._flops],
        )

    # -- lifecycle -----------------------------------------------------

    def _ensure_open(self) -> None:
        if not self._closed:
            return
        if self._stuck_ranks:
            raise TransportError(
                f"transport is closed and unusable: worker thread(s) for "
                f"rank(s) {self._stuck_ranks} never terminated"
            )
        raise TransportError("transport is closed")

    def close(self) -> None:
        """Stop the workers; the transport is unusable after."""
        if self._closed:
            return
        self._closed = True
        for q in self._tasks:
            q.put(_STOP)
        stuck: set[int] = set()
        for r, w in enumerate(self._workers):
            w.join(timeout=self.close_join_timeout)
            if w.is_alive():
                stuck.add(r)
        for r, w in self._abandoned:
            if w.is_alive():
                w.join(timeout=self.close_join_timeout)
                if w.is_alive():
                    stuck.add(r)
        if stuck:
            self._stuck_ranks = sorted(stuck)
            warnings.warn(
                f"ThreadTransport.close(): worker thread(s) for rank(s) "
                f"{self._stuck_ranks} did not terminate within "
                f"{self.close_join_timeout:g}s; the transport is marked "
                "unusable and the daemon threads will be reaped at exit",
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "ThreadTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
