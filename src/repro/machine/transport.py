"""The transport abstraction behind the SPMD API (ROADMAP item 1).

Every parallel driver in this reproduction is a *centralised* SPMD
program: one coordinator loop drives ``nranks`` ranks through
alternating **parallel regions** (per-rank local numerics) and
**communication supersteps** (point-to-point messages, barriers,
collectives).  This module extracts the contract those drivers actually
use from :class:`~repro.machine.simulator.Simulator` into a
:class:`Transport` protocol with two interchangeable implementations
(plus ``transport="none"``, which runs the identical algorithm with no
transport at all):

``Simulator`` (``transport="simulator"``)
    The deterministic oracle.  Executes parallel regions sequentially in
    rank order, maintains per-rank virtual clocks driven by a
    :class:`~repro.machine.model.MachineModel`, and keeps **exclusive
    ownership of fault injection, race tracing and the cost model**.

``ThreadTransport`` (``transport="threads"``)
    The real-worker backend: one persistent worker thread per rank;
    parallel regions execute concurrently on the workers, messages
    match through real condition-guarded mailboxes keyed on
    ``(src, dst, tag)``.

The contract (DESIGN.md §13)
----------------------------
A transport provides:

* ``pardo(thunks)`` — the parallel region: ``nranks`` zero-argument
  callables, one per rank (``None`` for an idle rank), executed with
  **read-shared / write-own** semantics: a thunk may read any
  coordinator state but must mutate nothing — it *returns* its updates,
  and the coordinator merges them in deterministic rank order.  This is
  the discipline that makes the transports bit-identical.
* the messaging surface ``send`` / ``recv`` / ``exchange`` / ``barrier``
  / ``allreduce`` / ``allgather`` and the accounting surface ``compute``
  / ``advance`` / ``superstep`` / ``elapsed`` / ``stats``;
* the tracing hooks ``declare_read`` / ``declare_write`` (no-ops except
  on a tracing simulator) and ``snapshot`` / ``restore`` for the
  checkpoint layer.

``resolve_transport`` is the single entry-point factory the
``transport=`` keyword of every ``parallel_*`` driver goes through; it
raises the typed :class:`TransportCapabilityError` when ``faults=`` or
``trace=True`` is combined with a backend that cannot honour it — the
simulator is the only fully fault/race-instrumented transport.  The
thread transport accepts the *portable* fault subset (crash / stall /
corrupt-result; see :mod:`repro.machine.supervision`) and runs every
``pardo`` region under a supervisor (DESIGN.md §14): per-rank deadlines
with heartbeats, the typed failure taxonomy (:class:`WorkerCrashed` /
:class:`WorkerHung` / :class:`ResultUnpicklable`), and bounded region
retry from the coordinator's intact state — bit-identical by the
pure-thunk discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import CRAY_T3D, MachineModel

if TYPE_CHECKING:
    from ..faults import FaultPlan
    from .supervision import SupervisionPolicy

__all__ = [
    "Transport",
    "TransportError",
    "TransportCapabilityError",
    "TransportWorkerError",
    "WorkerCrashed",
    "WorkerHung",
    "ResultUnpicklable",
    "SUPERVISED_FAILURES",
    "TransportSnapshot",
    "is_transport",
    "resolve_transport",
    "transport_name",
    "TRANSPORT_NAMES",
]

#: The spellings ``resolve_transport`` accepts as strings.  ``"none"``
#: (or ``None``) runs the identical algorithm with no transport at all —
#: the accounting-free fast path used heavily in tests.
TRANSPORT_NAMES = ("simulator", "threads", "none")


class TransportError(RuntimeError):
    """A transport-layer failure (deadlock, worker death, misuse)."""


class TransportCapabilityError(TransportError, ValueError):
    """A feature was requested from a transport that cannot honour it.

    Raised by :func:`resolve_transport` when ``faults=`` or
    ``trace=True`` (or ``copy_payloads=True``) is combined with a
    non-simulator transport: the simulator is the only backend carrying
    the fault harness and the race tracer, and silently ignoring the
    request would certify nothing.  Subclasses :class:`ValueError` so
    legacy callers catching the old validation error keep working.
    """


class TransportWorkerError(TransportError):
    """Base of the worker-failure taxonomy: a worker rank failed.

    Carries the failing ``rank``.  Only the subclasses below are raised
    (DESIGN.md §14), and they are what triggers region retry; an
    application exception raised by a thunk re-raises unchanged.
    """

    def __init__(self, rank: int, message: str) -> None:
        super().__init__(f"rank {rank} failed: {message}")
        self.rank = rank


class WorkerCrashed(TransportWorkerError):
    """A worker died mid-region without delivering its result.

    ``remote_traceback`` holds what the worker died on (the injected
    crash, or the non-``Exception`` it raised).
    """

    def __init__(self, rank: int, message: str, *, remote_traceback: str = "") -> None:
        super().__init__(rank, message)
        self.remote_traceback = remote_traceback


class WorkerHung(TransportWorkerError):
    """A worker delivered neither result nor heartbeat within the deadline."""

    def __init__(self, rank: int, deadline: float) -> None:
        super().__init__(
            rank,
            f"no result or heartbeat within the {deadline:g}s supervision deadline",
        )
        self.deadline = deadline


class ResultUnpicklable(TransportWorkerError):
    """A worker finished but its result could not be decoded.

    The thread transport raises it for an injected corrupt-result fault
    (the rank's result replaced by an undecodable payload).
    """


#: The failure taxonomy the region supervisor retries on.
SUPERVISED_FAILURES = (WorkerCrashed, WorkerHung, ResultUnpicklable)


class TransportSnapshot:
    """Frozen counter + mailbox state of the thread transport."""

    __slots__ = ("flops", "mail", "messages", "words", "barriers", "collectives")

    def __init__(self, flops, mail, messages, words, barriers, collectives) -> None:
        self.flops = flops
        self.mail = mail
        self.messages = messages
        self.words = words
        self.barriers = barriers
        self.collectives = collectives


class Transport:
    """Structural base/documentation class for the transport contract.

    :class:`~repro.machine.simulator.Simulator` conforms structurally
    without inheriting (it predates this module and tests construct it
    directly); :class:`~repro.machine.threads.ThreadTransport` is its
    only subclass.
    ``isinstance`` checks are therefore deliberately avoided — use
    :func:`is_transport` / :func:`resolve_transport`.
    """

    #: Short spelling used in reports and ``transport=`` round-trips.
    name: str = "abstract"
    #: Whether :class:`~repro.faults.FaultPlan` injection is available.
    supports_faults: bool = False
    #: Whether ``trace=True`` race tracing is available.
    supports_trace: bool = False
    #: True for the modelled (virtual-clock) backend.
    is_simulated: bool = False
    #: True when region thunks run concurrently in one address space —
    #: drivers must then use per-thunk scratch state (accumulators).
    concurrent_regions: bool = False

    nranks: int


def is_transport(obj: object) -> bool:
    """Duck-typed contract check used by :func:`resolve_transport`."""
    return all(
        callable(getattr(obj, meth, None))
        for meth in ("pardo", "send", "recv", "barrier", "compute", "stats")
    ) and hasattr(obj, "nranks")


def transport_name(transport: object | None) -> str:
    """The report-facing name of a transport instance (``"none"`` for no
    accounting), tolerating bare Simulators that predate ``.name``."""
    if transport is None:
        return "none"
    return getattr(transport, "name", type(transport).__name__.lower())


def resolve_transport(
    spec: object,
    nranks: int,
    *,
    model: MachineModel = CRAY_T3D,
    trace: bool = False,
    faults: "FaultPlan | None" = None,
    copy_payloads: bool = False,
    supervision: "SupervisionPolicy | None" = None,
):
    """Resolve a ``transport=`` argument into a transport instance.

    Parameters
    ----------
    spec:
        ``"simulator"`` | ``"threads"`` | ``"none"`` |
        ``None`` | a ready :class:`Transport` / ``Simulator`` instance.
        ``"none"``/``None`` returns ``None`` — run the identical
        algorithm with no transport.
    nranks:
        Rank count a string spec is instantiated with; an instance must
        already match it.
    model, trace, faults, copy_payloads:
        Simulator configuration.  ``trace=True`` and ``copy_payloads=``
        remain simulator-only.  ``faults=`` runs anywhere a fault can
        be honoured: in full on the simulator, and as the *portable*
        subset (crash / stall / corrupt-result, DESIGN.md §14) on
        threads — a plan containing drop / delay / duplicate
        message faults still raises :class:`TransportCapabilityError`
        off-simulator rather than silently certifying nothing.
    supervision:
        A :class:`~repro.machine.supervision.SupervisionPolicy` for the
        worker supervisor — ``"threads"`` only.

    Returns
    -------
    A transport instance, or ``None`` for the accounting-free path.
    """
    from .simulator import Simulator

    def _require_simulator(cap: str) -> None:
        raise TransportCapabilityError(
            f"{cap} requires the simulator transport "
            f"(got transport={transport_name(spec) if not isinstance(spec, str) else spec!r}); "
            "the simulator is the only fault/race-instrumented backend"
        )

    def _require_workers(cap: str) -> None:
        raise TransportCapabilityError(
            f"{cap} requires the worker-backed transport (threads) "
            f"(got transport={transport_name(spec) if not isinstance(spec, str) else spec!r}); "
            "only real workers run under the region supervisor"
        )

    def _check_portable(plan: "FaultPlan") -> None:
        from .supervision import unportable_faults

        bad = unportable_faults(plan)
        if bad:
            raise TransportCapabilityError(
                f"faults= on transport "
                f"{transport_name(spec) if not isinstance(spec, str) else spec!r} "
                f"supports only the portable subset (crash/stall rank faults, "
                f"corrupt message faults as corrupt-result); not portable: "
                f"{', '.join(bad)} — use transport='simulator' for those"
            )

    if spec is None or (isinstance(spec, str) and spec == "none"):
        if trace:
            _require_simulator("trace=True")
        if faults is not None:
            _require_simulator("faults=")
        if copy_payloads:
            _require_simulator("copy_payloads=True")
        if supervision is not None:
            _require_workers("supervision=")
        return None

    if isinstance(spec, str):
        if spec == "simulator":
            if supervision is not None:
                _require_workers("supervision=")
            return Simulator(
                nranks, model, trace=trace, faults=faults, copy_payloads=copy_payloads
            )
        if spec == "threads":
            if trace:
                _require_simulator("trace=True")
            if copy_payloads:
                _require_simulator("copy_payloads=True")
            if faults is not None:
                _check_portable(faults)
            from .threads import ThreadTransport

            return ThreadTransport(nranks, supervision=supervision, faults=faults)
        raise ValueError(
            f"unknown transport {spec!r}; choose from {TRANSPORT_NAMES} "
            "or pass a Transport instance"
        )

    # a ready instance: validate rank count and capability requests
    if not is_transport(spec):
        raise TypeError(
            f"transport= expects one of {TRANSPORT_NAMES} or a Transport "
            f"instance, got {type(spec).__name__}"
        )
    if spec.nranks != nranks:
        raise ValueError(
            f"transport has {spec.nranks} ranks but nranks={nranks} was requested"
        )
    simulated = bool(getattr(spec, "is_simulated", isinstance(spec, Simulator)))
    if trace and not simulated:
        _require_simulator("trace=True")
    if faults is not None:
        # a fault plan cannot be retrofitted onto a live instance
        raise TransportCapabilityError(
            "faults= cannot be combined with a ready transport instance; "
            "construct Simulator(nranks, model, faults=plan) or "
            "ThreadTransport(nranks, faults=plan) and pass that"
        )
    if supervision is not None:
        raise TransportCapabilityError(
            "supervision= cannot be retrofitted onto a ready transport "
            "instance; construct ThreadTransport(nranks, "
            "supervision=policy) and pass that"
        )
    if copy_payloads and not simulated:
        _require_simulator("copy_payloads=True")
    if trace and simulated and getattr(spec, "tracer", None) is None:
        raise TransportCapabilityError(
            "trace=True cannot be retrofitted onto a live instance; "
            "construct Simulator(nranks, model, trace=True) and pass that"
        )
    return spec
