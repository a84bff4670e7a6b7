"""Distributed-memory machine layer: the transport abstraction behind
the SPMD drivers.

Two interchangeable transports implement one contract (see
``transport.py`` / DESIGN.md §13): the cost-model :class:`Simulator`
(per-rank virtual clocks, Cray T3D preset and others; the deterministic
oracle and the only fault/race-instrumented backend) and the
:class:`ThreadTransport` (one supervised worker thread per rank, the
real-worker backend).  ``resolve_transport`` maps the drivers'
``transport=`` keyword onto an instance; ``"none"`` runs the same
algorithm with no transport at all.
"""

from .ledger import ChargeEvent, ChargeLedger
from .model import CRAY_T3D, IDEAL, WORKSTATION_CLUSTER, MachineModel
from .simulator import CommStats, Simulator, SimulatorSnapshot
from .supervision import (
    PortableFaultRuntime,
    SupervisionPolicy,
    unportable_faults,
)
from .threads import ThreadTransport
from .transport import (
    SUPERVISED_FAILURES,
    TRANSPORT_NAMES,
    ResultUnpicklable,
    Transport,
    TransportCapabilityError,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
    is_transport,
    resolve_transport,
    transport_name,
)

__all__ = [
    "MachineModel",
    "CRAY_T3D",
    "WORKSTATION_CLUSTER",
    "IDEAL",
    "Simulator",
    "CommStats",
    "ChargeEvent",
    "ChargeLedger",
    "SimulatorSnapshot",
    "Transport",
    "ThreadTransport",
    "TransportError",
    "TransportCapabilityError",
    "TransportWorkerError",
    "WorkerCrashed",
    "WorkerHung",
    "ResultUnpicklable",
    "SUPERVISED_FAILURES",
    "SupervisionPolicy",
    "PortableFaultRuntime",
    "unportable_faults",
    "is_transport",
    "resolve_transport",
    "transport_name",
    "TRANSPORT_NAMES",
]
