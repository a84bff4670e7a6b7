"""Parallel forward/backward substitution (paper §5).

The application of the preconditioner — solving ``(I+L) y = b`` then
``U x = y`` — reuses the exact structure the parallel factorization
imposed (Figure 3):

* **forward**: each rank solves its interior block concurrently (the
  interior L blocks are mutually independent), then the interface
  levels are swept in factorization order; after each level the freshly
  computed ``x`` values are sent to the ranks whose later rows reference
  them, and a barrier separates the levels (the ``q`` implicit
  synchronisation points of the paper);
* **backward**: the same in reverse — interface levels last-to-first,
  then the interior blocks.

The communicated volume is proportional to the number of interface
nodes (like a matvec); what distinguishes it from the matvec is the
``q`` level synchronisations, which is why ILUT* (smaller ``q``)
produces cheaper triangular solves — the effect Table 2 and Figure 6
measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..faults import FaultJournal, FaultPlan
from ..machine import (
    CRAY_T3D,
    CommStats,
    MachineModel,
    Transport,
    is_transport,
    resolve_transport,
    transport_name,
)
from .factors import ILUFactors

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy
    from ..verify.trace import AccessTracer

__all__ = ["TriangularSolveResult", "parallel_triangular_solve"]


@dataclass
class TriangularSolveResult:
    """Solution of one forward+backward substitution on the simulator."""

    x: np.ndarray
    modeled_time: float | None
    comm: CommStats | None
    flops: float
    trace: AccessTracer | None = None
    fault_journal: FaultJournal | None = None
    recoveries: int = 0
    transport: str = "none"


def _cross_rank_receivers(
    M_csc_like: dict[int, set[int]],
    owner: np.ndarray,
    positions: np.ndarray,
) -> dict[tuple[int, int], int]:
    """Words each (src, dst) rank pair exchanges for the given level.

    ``M_csc_like[p]`` is the set of ranks owning rows that reference
    column position ``p``.
    """
    words: dict[tuple[int, int], int] = {}
    for p in positions:
        src = int(owner[p])
        for dst in M_csc_like.get(int(p), ()):  # ranks needing x[p]
            if dst != src:
                key = (src, dst)
                words[key] = words.get(key, 0) + 1
    return words


def _column_consumers(M, owner: np.ndarray) -> dict[int, set[int]]:
    """For each column position, the ranks owning rows that reference it."""
    consumers: dict[int, set[int]] = {}
    nrows = M.shape[0]
    for i in range(nrows):
        cols, _ = M.row(i)
        r = int(owner[i])
        for c in cols:
            consumers.setdefault(int(c), set()).add(r)
    return consumers


def _solve_vectorized(factors, b, sim, tr):
    """Vectorized backend of :func:`parallel_triangular_solve`.

    Numerics run through the cached batched level schedules; the
    simulator is driven with the same per-rank charges, messages and
    barriers as the reference loop (compute costs are integer-valued, so
    batched summation reproduces ``modeled_time`` bit for bit), and when
    a tracer is active the shared-``x`` accesses are declared row by row
    exactly as the reference does — race detection sees the same
    program.
    """
    from ..kernels.triangular import cached_schedules

    levels = factors.levels
    owner = levels.owner
    L, U = factors.L, factors.U
    l_nnz = np.diff(L.indptr)
    u_nnz = np.diff(U.indptr)
    nranks = sim.nranks if sim is not None else (int(owner.max()) + 1 if owner.size else 1)
    # Per-rank accumulator instead of a shared nonlocal: every charge is
    # integer-valued, so the final sum is exact and order-independent.
    flops_rank = np.zeros(nranks, dtype=np.float64)

    def charge(rank: int, fl: float) -> None:
        flops_rank[rank] += fl
        if sim is not None:
            sim.compute(rank, fl)

    fwd, bwd = cached_schedules(factors)
    bp = b[factors.perm]
    y = fwd.solve(bp)

    # ------------------------------------------------------- forward
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        rank = int(owner[s])
        if tr is not None:
            for i in range(s, e):
                cols, _ = L.row(i)
                if cols.size:
                    tr.read_many(rank, "x", cols)
                tr.write(rank, "x", i)
        charge(rank, int(2 * l_nnz[s:e].sum()))
    if sim is not None:
        sim.barrier()

    l_consumers = _column_consumers(L, owner) if sim is not None else {}
    for lvl_idx, positions in enumerate(levels.interface_levels):
        if tr is not None:
            for p in positions:
                cols, _ = L.row(int(p))
                if cols.size:
                    tr.read_many(int(owner[p]), "x", cols)
                tr.write(int(owner[p]), "x", int(p))
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size:
            per = np.bincount(owner[pos], weights=2.0 * l_nnz[pos])
            for rank in np.unique(owner[pos]):
                charge(int(rank), float(per[rank]))
        if sim is not None:
            words = _cross_rank_receivers(l_consumers, owner, positions)
            for (src, dst), w in sorted(words.items()):
                sim.send(src, dst, None, float(w), tag=("fwd", lvl_idx))
            for (src, dst), _w in sorted(words.items()):
                sim.recv(dst, src, tag=("fwd", lvl_idx))
            sim.barrier()

    # ------------------------------------------------------- backward
    u_consumers = _column_consumers(U, owner) if sim is not None else {}
    for lvl_idx in range(len(levels.interface_levels) - 1, -1, -1):
        positions = levels.interface_levels[lvl_idx]
        if tr is not None:
            for p in positions[::-1]:
                cols, _ = U.row(int(p))
                if cols.size > 1:
                    tr.read_many(int(owner[p]), "x", cols[1:])
                tr.write(int(owner[p]), "x", int(p))
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size:
            per = np.bincount(owner[pos], weights=2.0 * (u_nnz[pos] - 1) + 1.0)
            for rank in np.unique(owner[pos]):
                charge(int(rank), float(per[rank]))
        if sim is not None:
            words = _cross_rank_receivers(u_consumers, owner, positions)
            for (src, dst), w in sorted(words.items()):
                sim.send(src, dst, None, float(w), tag=("bwd", lvl_idx))
            for (src, dst), _w in sorted(words.items()):
                sim.recv(dst, src, tag=("bwd", lvl_idx))
            sim.barrier()
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        rank = int(owner[s])
        if tr is not None:
            for i in range(e - 1, s - 1, -1):
                cols, _ = U.row(i)
                if cols.size > 1:
                    tr.read_many(rank, "x", cols[1:])
                tr.write(rank, "x", i)
        charge(rank, float((2.0 * (u_nnz[s:e] - 1) + 1.0).sum()))
    if sim is not None:
        sim.barrier()

    x = bwd.solve(y)
    out = np.empty_like(x)
    out[factors.perm] = x
    return TriangularSolveResult(
        x=out,
        modeled_time=sim.elapsed() if sim is not None else None,
        comm=sim.stats() if sim is not None else None,
        flops=float(flops_rank.sum()),
        trace=tr,
        fault_journal=getattr(sim, "fault_journal", None),
    )


def parallel_triangular_solve(
    factors: ILUFactors,
    b: np.ndarray,
    *,
    nranks: int | None = None,
    model: MachineModel = CRAY_T3D,
    transport: str | Transport | None = "simulator",
    trace: bool = False,
    backend: str | None = None,
    faults: FaultPlan | None = None,
    copy_payloads: bool = False,
    supervision: "SupervisionPolicy | None" = None,
) -> TriangularSolveResult:
    """Apply the preconditioner ``M^{-1} b`` with the two-phase schedule.

    ``b`` and the returned ``x`` are in *original* ordering.  The factors
    must carry a :class:`~repro.ilu.factors.LevelStructure` (i.e. come
    from a parallel factorization).

    With ``backend="vectorized"`` the substitution itself runs through
    the cached batched level schedules
    (:func:`repro.kernels.triangular.cached_schedules`) while the cost
    accounting, messages and (when tracing) shared-access declarations
    follow the reference schedule row for row: ``modeled_time``, ``comm``
    and race-detection results are identical to the reference backend,
    and ``x`` agrees to roundoff.

    ``transport`` selects the execution backend (``"simulator"`` |
    ``"threads"`` | ``"none"`` | a ready
    :class:`~repro.machine.Transport`).

    ``faults`` arms a :class:`~repro.faults.FaultPlan`: on the simulator
    message-level faults surface as :class:`~repro.faults.MessageLost` /
    :class:`~repro.faults.RankFailure`; on threads the
    portable subset (crash / stall / corrupt-result) is injected at the
    worker level and recovered by supervised region retry — tune the
    supervisor with ``supervision=`` (a
    :class:`~repro.machine.SupervisionPolicy`; threads only).
    The journal and the retry count are returned on the result.

    ``copy_payloads=True`` pickle round-trips every simulated message at
    post time (the serializing-transport debug oracle; requires
    ``transport="simulator"``) — results are bit-identical.
    """
    if factors.levels is None:
        raise ValueError(
            "factors carry no level structure; use a parallel factorization "
            "or the sequential solves in repro.sparse.ops"
        )
    levels = factors.levels
    owner = levels.owner
    n = factors.n
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    if nranks is None:
        nranks = int(owner.max()) + 1 if owner.size else 1
    sim = resolve_transport(
        transport,
        nranks,
        model=model,
        trace=trace,
        faults=faults,
        copy_payloads=copy_payloads,
        supervision=supervision,
    )
    owned = not is_transport(transport)
    try:
        res = _solve_on(factors, b, sim, nranks, backend)
        res.transport = transport_name(sim)
        res.recoveries = getattr(sim, "region_recoveries", 0)
        return res
    finally:
        if owned and sim is not None:
            sim.close()


def _solve_on(
    factors: ILUFactors,
    b: np.ndarray,
    sim,
    nranks: int,
    backend: str | None,
) -> TriangularSolveResult:
    """Run the substitution against a resolved transport (or ``None``)."""
    levels = factors.levels
    owner = levels.owner
    tr = getattr(sim, "tracer", None)
    L, U = factors.L, factors.U
    # Per-rank accumulator instead of a shared nonlocal: every charge is
    # integer-valued, so the final sum is exact and order-independent.
    flops_rank = np.zeros(nranks, dtype=np.float64)

    def charge(rank: int, fl: float) -> None:
        flops_rank[rank] += fl
        if sim is not None:
            sim.compute(rank, fl)

    from ..kernels.backend import VECTORIZED, resolve_backend

    if resolve_backend(backend) == VECTORIZED:
        return _solve_vectorized(factors, b, sim, tr)

    # Reference backend: every sweep stage is a parallel region of pure
    # per-rank thunks (read-shared vector, return own entries); the
    # coordinator merges in the historical inline order and replays
    # declarations/charges there — bit-identical on every transport.
    def pardo(thunks):
        if sim is not None:
            return sim.pardo(thunks)
        return [f() if f is not None else None for f in thunks]

    # ------------------------------------------------------- forward
    bp = b[factors.perm]
    y = bp.copy()

    # interior blocks: independent across ranks; each thunk solves its
    # own contiguous block against a private copy of the segment
    def fwd_interior(s: int, e: int) -> tuple[np.ndarray, float]:
        seg = y[s:e].copy()
        fl = 0.0
        for i in range(s, e):
            cols, vals = L.row(i)
            if cols.size:
                # interior L columns stay within the owner's block by
                # construction; gather defensively so an out-of-block
                # column reads the shared vector instead of mis-indexing
                xv = np.empty(cols.size)
                in_blk = cols >= s
                xv[in_blk] = seg[cols[in_blk] - s]
                xv[~in_blk] = y[cols[~in_blk]]
                seg[i - s] -= np.dot(vals, xv)
                fl += 2 * cols.size
        return seg, fl

    fwd_thunks: list = [None] * nranks
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        fwd_thunks[int(owner[s])] = lambda s=s, e=e: fwd_interior(s, e)
    fwd_results = pardo(fwd_thunks)
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        rank = int(owner[s])
        seg, fl = fwd_results[rank]
        if tr is not None:
            for i in range(s, e):
                cols, _ = L.row(i)
                if cols.size:
                    tr.read_many(rank, "x", cols)
                tr.write(rank, "x", i)
        y[s:e] = seg
        charge(rank, fl)
    if sim is not None:
        sim.barrier()

    def solve_level(vec: np.ndarray, M, positions, backward: bool) -> dict[int, float]:
        """Solve one interface level as parallel sub-rounds.

        The elimination engine's levels are true dependency levels, but
        interface-partitioned factors carry intra-level couplings that
        the historical inline loop resolved sequentially in ``positions``
        order.  Execution here splits the level into dependency
        sub-rounds (each a genuine parallel region); every row still
        reads only *final* dependency values, so the computed entries are
        bit-identical to the inline sweep.  Charges and messages stay at
        the original level granularity — sub-rounds are an execution
        detail, not part of the cost model.
        """
        order = [int(p) for p in (positions[::-1] if backward else positions)]
        seqno = {p: k for k, p in enumerate(order)}
        depth: dict[int, int] = {}
        rounds: list[list[int]] = []
        for p in order:
            cols = M.row(p)[0]
            deps = cols[1:] if backward else cols
            cdepths = [depth[int(c)] for c in deps if int(c) in depth]
            d = (max(cdepths) + 1) if cdepths else 0
            depth[p] = d
            while len(rounds) <= d:
                rounds.append([])
            rounds[d].append(p)

        newvals: dict[int, float] = {}

        def round_thunk(rows: list[int]):
            def thunk() -> list[tuple[int, float]]:
                out = []
                for p in rows:
                    cols, vals = M.row(p)
                    deps = cols[1:] if backward else cols
                    v = vec[p]
                    if deps.size:
                        # a same-level dep earlier in inline order is
                        # final in newvals (strictly smaller depth); one
                        # later in inline order must read the pre-sweep
                        # value, exactly as the inline loop did
                        k = seqno[p]
                        xv = np.array(
                            [
                                newvals[int(c)]
                                if seqno.get(int(c), k) < k
                                else vec[c]
                                for c in deps
                            ],
                            dtype=np.float64,
                        )
                        v -= np.dot(vals[1:] if backward else vals, xv)
                    if backward:
                        v /= vals[0]
                    out.append((p, v))
                return out

            return thunk

        for rnd in rounds:
            rows_by_rank: list[list[int]] = [[] for _ in range(nranks)]
            for p in rnd:
                rows_by_rank[int(owner[p])].append(p)
            res = pardo(
                [round_thunk(rows) if rows else None for rows in rows_by_rank]
            )
            for rr in res:
                if rr:
                    for p, v in rr:
                        newvals[p] = v
        return newvals

    l_consumers = _column_consumers(L, owner) if sim is not None else {}
    for lvl_idx, positions in enumerate(levels.interface_levels):
        newvals = solve_level(y, L, positions, backward=False)
        per_rank_fl: dict[int, float] = {}
        for p in positions:
            cols, _vals = L.row(int(p))
            if tr is not None:
                if cols.size:
                    tr.read_many(int(owner[p]), "x", cols)
                tr.write(int(owner[p]), "x", int(p))
            y[p] = newvals[int(p)]
            per_rank_fl[int(owner[p])] = per_rank_fl.get(int(owner[p]), 0.0) + 2.0 * cols.size
        for rank, fl in sorted(per_rank_fl.items()):
            charge(rank, fl)
        if sim is not None:
            words = _cross_rank_receivers(l_consumers, owner, positions)
            for (src, dst), w in sorted(words.items()):
                sim.send(src, dst, None, float(w), tag=("fwd", lvl_idx))
            for (src, dst), _w in sorted(words.items()):
                sim.recv(dst, src, tag=("fwd", lvl_idx))
            sim.barrier()

    # ------------------------------------------------------- backward
    x = y
    u_consumers = _column_consumers(U, owner) if sim is not None else {}
    for lvl_idx in range(len(levels.interface_levels) - 1, -1, -1):
        positions = levels.interface_levels[lvl_idx]
        newvals = solve_level(x, U, positions, backward=True)
        per_rank_fl = {}
        for p in positions[::-1]:
            cols, _vals = U.row(int(p))
            # diagonal stored first (position p itself)
            if tr is not None:
                if cols.size > 1:
                    tr.read_many(int(owner[p]), "x", cols[1:])
                tr.write(int(owner[p]), "x", int(p))
            x[p] = newvals[int(p)]
            per_rank_fl[int(owner[p])] = (
                per_rank_fl.get(int(owner[p]), 0.0) + 2.0 * (cols.size - 1) + 1.0
            )
        for rank, fl in sorted(per_rank_fl.items()):
            charge(rank, fl)
        if sim is not None:
            words = _cross_rank_receivers(u_consumers, owner, positions)
            # in the backward sweep values flow to *earlier* rows
            for (src, dst), w in sorted(words.items()):
                sim.send(src, dst, None, float(w), tag=("bwd", lvl_idx))
            for (src, dst), _w in sorted(words.items()):
                sim.recv(dst, src, tag=("bwd", lvl_idx))
            sim.barrier()

    def bwd_interior(s: int, e: int) -> tuple[np.ndarray, float]:
        seg = x[s:e].copy()
        fl = 0.0
        for i in range(e - 1, s - 1, -1):
            cols, vals = U.row(i)
            if cols.size > 1:
                # U rows of the interior block may reference interface
                # columns past the block end — those are final in the
                # shared vector by the time this region runs
                c = cols[1:]
                xv = np.empty(c.size)
                in_blk = c < e
                xv[in_blk] = seg[c[in_blk] - s]
                xv[~in_blk] = x[c[~in_blk]]
                seg[i - s] -= np.dot(vals[1:], xv)
            seg[i - s] /= vals[0]
            fl += 2.0 * (cols.size - 1) + 1.0
        return seg, fl

    bwd_thunks: list = [None] * nranks
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        bwd_thunks[int(owner[s])] = lambda s=s, e=e: bwd_interior(s, e)
    bwd_results = pardo(bwd_thunks)
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        rank = int(owner[s])
        seg, fl = bwd_results[rank]
        if tr is not None:
            for i in range(e - 1, s - 1, -1):
                cols, _ = U.row(i)
                if cols.size > 1:
                    tr.read_many(rank, "x", cols[1:])
                tr.write(rank, "x", i)
        x[s:e] = seg
        charge(rank, fl)
    if sim is not None:
        sim.barrier()

    out = np.empty_like(x)
    out[factors.perm] = x
    return TriangularSolveResult(
        x=out,
        modeled_time=sim.elapsed() if sim is not None else None,
        comm=sim.stats() if sim is not None else None,
        flops=float(flops_rank.sum()),
        trace=tr,
        fault_journal=getattr(sim, "fault_journal", None),
    )
