"""Alternative interface factorization via recursive partitioning (paper §7).

The paper's conclusions sketch a future-work formulation for *dense*
factorizations, where independent sets become tiny: instead of MIS
levels, compute a p-way partitioning of the interface graph ``A_I``,
factor the rows *internal* to each interface-domain concurrently (they
only depend on same-domain rows), form the second-level reduced matrix
over the new (much smaller) interface, and recurse.

This module implements that scheme as
:class:`InterfacePartitionEngine`, a drop-in replacement for the phase-2
loop of :class:`~repro.ilu.elimination.EliminationEngine`.  Each
recursion round contributes **one** synchronisation level regardless of
how many rows it factors — trading MIS's fine-grained concurrency for
far fewer synchronisations, exactly the trade §7 anticipates for slow
networks.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph import Graph
from ..partition import partition_graph_kway
from .dropping import keep_largest
from .elimination import EliminationEngine, EliminationOutcome, _merge_rows

__all__ = ["InterfacePartitionEngine", "parallel_ilut_partitioned"]


class InterfacePartitionEngine(EliminationEngine):
    """Two-phase ILUT with partition-based interface factorization.

    Phase 1 is inherited unchanged.  Phase 2 repeats: partition the
    symmetrised structure of the remaining reduced matrix into (up to)
    ``nranks`` interface-domains; concurrently factor each domain's
    internal rows (sequentially within the domain, respecting intra-
    domain dependencies); reduce the new interface rows; recurse.  When
    the remainder is small or fully coupled, one rank factors it
    sequentially.
    """

    #: remaining-node count below which the tail is factored sequentially
    SEQUENTIAL_CUTOFF = 24

    def run(self) -> EliminationOutcome:
        nranks = self.decomp.nranks
        interior_ranges = self._run_phase1()

        interface_levels: list[np.ndarray] = []
        rounds = 0
        while self.reduced:
            if rounds >= self.max_levels:
                raise RuntimeError(
                    f"interface factorization did not terminate in {rounds} rounds"
                )
            remaining = self._remaining_nodes()
            pos_start = len(self.order)
            if remaining.size <= self.SEQUENTIAL_CUTOFF:
                self._factor_domain(remaining, rank=int(self.decomp.part[remaining[0]]))
            else:
                domains = self._split_interface(remaining)
                internal_total = sum(d.size for d in domains)
                if internal_total == 0:
                    # fully coupled: no concurrency extractable, finish serially
                    self._factor_domain(
                        remaining, rank=int(self.decomp.part[remaining[0]])
                    )
                else:
                    # one parallel region: each domain's internal rows are
                    # factored by its rank concurrently (domains are
                    # internally closed, so thunks never cross-read)
                    thunks: list = [None] * nranks
                    for dom_rank, dom in enumerate(domains):
                        if dom.size:
                            thunks[dom_rank % nranks] = (
                                lambda dom=dom: self._compute_domain(dom)
                            )
                    results = self._pardo(thunks)
                    for dom_rank, dom in enumerate(domains):
                        if dom.size:
                            self._apply_domain_records(
                                dom_rank % nranks, results[dom_rank % nranks]
                            )
                    factored_round = np.concatenate(
                        [d for d in domains if d.size]
                    )
                    self._reduce_against(factored_round)
            interface_levels.append(
                np.arange(pos_start, len(self.order), dtype=np.int64)
            )
            self.level_sizes.append(len(self.order) - pos_start)
            self._barrier()
            rounds += 1

        factors = self._assemble(interior_ranges, interface_levels)
        return EliminationOutcome(
            factors=factors,
            num_levels=rounds,
            level_sizes=self.level_sizes,
            flops=self.flops_total,
            words_copied=self.words_copied,
            u_rows_communicated=self.u_rows_comm,
        )

    # ------------------------------------------------------------------

    def _split_interface(self, remaining: np.ndarray) -> list[np.ndarray]:
        """Partition the remaining reduced graph; return per-domain
        *internal* node arrays (nodes with no cross-domain coupling)."""
        nloc = remaining.size
        local_of = {int(g): idx for idx, g in enumerate(remaining)}
        # symmetrised structure of the reduced matrix
        edges: set[tuple[int, int]] = set()
        for idx, g in enumerate(remaining):
            cols, _ = self.reduced[int(g)]
            for c in cols:
                if int(c) != int(g):
                    j = local_of[int(c)]
                    edges.add((idx, j))
                    edges.add((j, idx))
        if edges:
            arr = np.asarray(sorted(edges), dtype=np.int64)
            from ..sparse import CSRMatrix

            S = CSRMatrix.from_coo(
                arr[:, 0], arr[:, 1], np.ones(arr.shape[0]), (nloc, nloc)
            )
            graph = Graph(S.indptr, S.indices)
        else:
            graph = Graph(np.zeros(nloc + 1, dtype=np.int64), np.empty(0, np.int64))
        nparts = min(self.decomp.nranks, max(2, nloc // 8))
        res = partition_graph_kway(graph, nparts, seed=self.seed + 7)
        part = res.part
        internal: list[list[int]] = [[] for _ in range(nparts)]
        for idx in range(nloc):
            nbrs = graph.adjncy[graph.xadj[idx] : graph.xadj[idx + 1]]
            if nbrs.size == 0 or np.all(part[nbrs] == part[idx]):
                internal[part[idx]].append(int(remaining[idx]))
        return [np.asarray(sorted(d), dtype=np.int64) for d in internal]

    def _factor_domain(self, nodes: np.ndarray, rank: int) -> None:
        """Sequentially factor ``nodes`` (ascending), respecting
        intra-domain dependencies; charge all work to ``rank``.

        Compatibility wrapper over the pure thunk body
        (:meth:`_compute_domain`) plus the coordinator merge — the
        multi-domain round in :meth:`run` dispatches all domains through
        one parallel region instead.
        """
        self._apply_domain_records(rank, self._compute_domain(nodes))

    def _compute_domain(self, nodes: np.ndarray) -> list[tuple]:
        """Pure thunk body: factor one interface-domain's internal rows.

        Intra-domain pivots are tracked with a thunk-local elimination
        position overlay — order-isomorphic to the global positions the
        merge will assign, so the heap pops in the same sequence the
        historical inline loop produced.  Returns
        ``(i, l_row_or_None, u_row, charge)`` per row in ``nodes`` order.
        """
        in_round: dict[int, bool] = {int(v): True for v in nodes}
        local_pos: dict[int, int] = {}
        u_new: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        w = self._region_acc()
        records: list[tuple] = []
        for i_arr in nodes:
            i = int(i_arr)
            cols, vals = self.reduced[i]
            tau = self._tau(i)
            row_ops = 0
            w.load(cols, vals)
            # pivots: same-round nodes already factored, by elimination order
            heap = [
                (local_pos[int(c)], int(c))
                for c in cols
                if in_round.get(int(c), False) and int(c) in local_pos
            ]
            heapq.heapify(heap)
            done_pos = -1
            new_l_cols: list[int] = []
            new_l_vals: list[float] = []
            while heap:
                pk, k = heapq.heappop(heap)
                if pk <= done_pos:
                    continue
                done_pos = pk
                wk = w.get(k)
                w.drop(k)
                if wk == 0.0:
                    continue
                ucols, uvals = u_new[k]
                wk = wk / uvals[0]
                row_ops += 1
                if abs(wk) < tau:
                    continue
                new_l_cols.append(k)
                new_l_vals.append(wk)
                if ucols.size > 1:
                    w.axpy(-wk, ucols[1:], uvals[1:])
                    row_ops += 2 * int(ucols.size - 1)
                    for c in ucols[1:]:
                        if in_round.get(int(c), False) and int(c) in local_pos:
                            heapq.heappush(heap, (local_pos[int(c)], int(c)))
            rcols, rvals = w.extract()
            w.reset()
            # merge this round's multipliers into the L row (3rd rule)
            lc_old, lv_old = self.l_rows.get(i, (np.empty(0, np.int64), np.empty(0)))
            lc_new = np.asarray(new_l_cols, dtype=np.int64)
            lv_new = np.asarray(new_l_vals, dtype=np.float64)
            order_ = np.argsort(lc_new, kind="stable")
            lc_m, lv_m = _merge_rows(lc_old, lv_old, lc_new[order_], lv_new[order_])
            big = np.abs(lv_m) >= tau
            lc_m, lv_m = keep_largest(lc_m[big], lv_m[big], self.m)
            # U part: everything left (all unfactored columns)
            on = rcols == i
            diag = float(rvals[on][0]) if np.any(on) else 0.0
            big_u = (np.abs(rvals) >= tau) & ~on
            # already-factored same-round columns were consumed as pivots
            uc, uv = keep_largest(rcols[big_u], rvals[big_u], self.m)
            diag = self._guard_diag(i, diag)
            u_new[i] = (
                np.concatenate(([i], uc)).astype(np.int64),
                np.concatenate(([diag], uv)),
            )
            local_pos[i] = len(local_pos)
            records.append(
                (
                    i,
                    (lc_m, lv_m) if lc_m.size else None,
                    u_new[i],
                    row_ops + float(rcols.size),
                )
            )
        return records

    def _apply_domain_records(self, rank: int, records: list[tuple]) -> None:
        """Merge one domain's records in factoring order; assign global
        elimination positions and replay the per-row charges."""
        for i, l_row, u_row, charge in records:
            del self.reduced[i]
            if l_row is not None:
                self.l_rows[i] = l_row
            self.u_rows[i] = u_row
            self.pos[i] = len(self.order)
            self.order.append(i)
            self._charge_ops(rank, charge)

    def _reduce_against(self, factored: np.ndarray) -> None:
        """Eliminate this round's factored unknowns from remaining rows."""
        part = self.decomp.part
        fmask = np.zeros(self.n, dtype=bool)
        fmask[factored] = True
        # u-row exchange: determined from the pre-update reduced rows
        # (only first-order needs; fill-induced needs are charged as they
        # share the same aggregated messages)
        if self.sim is not None:
            need: dict[tuple[int, int], set[int]] = {}
            for i, (cols, _v) in sorted(self.reduced.items()):
                r = int(part[i])
                for k in cols[fmask[cols]]:
                    s = int(part[k])
                    if s != r:
                        need.setdefault((s, r), set()).add(int(k))
            for (src, dst), rows_needed in sorted(need.items()):
                words = sum(self.u_rows[k][0].size * 2.0 for k in sorted(rows_needed))
                self.sim.send(src, dst, None, words, tag="ipart")
                self.u_rows_comm += len(rows_needed)
            for (src, dst), _rows in sorted(need.items()):
                self.sim.recv(dst, src, tag="ipart")
        rows = sorted(self.reduced.keys())
        nranks = self.decomp.nranks
        rows_by_rank: list[list[int]] = [[] for _ in range(nranks)]
        for i in rows:
            rows_by_rank[int(part[i])].append(i)
        results = self._pardo(
            [
                (lambda r=r, rr=rr: self._compute_reduce_against(rr, fmask))
                if rr
                else None
                for r, rr in enumerate(rows_by_rank)
            ]
        )
        merged = {rec[0]: rec for recs in results if recs for rec in recs}
        # ascending row order: the historical inline order across ranks
        for i in rows:
            rec = merged.get(i)
            if rec is None:  # row untouched by this round's factored set
                continue
            _, l_row, reduced_row, row_ops, copy_words = rec
            rank = int(part[i])
            self.l_rows[i] = l_row
            self.reduced[i] = reduced_row
            self._charge_ops(rank, row_ops)
            self._charge_copy(rank, copy_words)

    def _compute_reduce_against(
        self, rows: list[int], fmask: np.ndarray
    ) -> list[tuple]:
        """Pure thunk body: eliminate this round's factored unknowns from
        one rank's reduced rows.  Returns
        ``(i, l_row, reduced_row, row_ops, copy_words)`` per touched row."""
        w = self._region_acc()
        records: list[tuple] = []
        for i in rows:
            cols, vals = self.reduced[i]
            if not np.any(fmask[cols]):
                continue
            tau = self._tau(i)
            row_ops = 0
            w.load(cols, vals)
            heap = [(int(self.pos[c]), int(c)) for c in cols if fmask[c]]
            heapq.heapify(heap)
            done_pos = -1
            new_l_cols: list[int] = []
            new_l_vals: list[float] = []
            while heap:
                pk, k = heapq.heappop(heap)
                if pk <= done_pos:
                    continue
                done_pos = pk
                wk = w.get(k)
                w.drop(k)
                if wk == 0.0:
                    continue
                ucols, uvals = self.u_rows[k]
                wk = wk / uvals[0]
                row_ops += 1
                if abs(wk) < tau:
                    continue
                new_l_cols.append(k)
                new_l_vals.append(wk)
                if ucols.size > 1:
                    w.axpy(-wk, ucols[1:], uvals[1:])
                    row_ops += 2 * int(ucols.size - 1)
                    for c in ucols[1:]:
                        if fmask[c]:
                            heapq.heappush(heap, (int(self.pos[c]), int(c)))
            rcols, rvals = w.extract()
            w.reset()
            lc_old, lv_old = self.l_rows.get(i, (np.empty(0, np.int64), np.empty(0)))
            lc_new = np.asarray(new_l_cols, dtype=np.int64)
            lv_new = np.asarray(new_l_vals, dtype=np.float64)
            order_ = np.argsort(lc_new, kind="stable")
            lc_m, lv_m = _merge_rows(lc_old, lv_old, lc_new[order_], lv_new[order_])
            big = np.abs(lv_m) >= tau
            lc_m, lv_m = keep_largest(lc_m[big], lv_m[big], self.m)
            on = rcols == i
            diag_val = float(rvals[on][0]) if np.any(on) else 0.0
            keep = (np.abs(rvals) >= tau) & ~on & ~fmask[rcols]
            rc_k, rv_k = rcols[keep], rvals[keep]
            if self.reduced_cap is not None:
                rc_k, rv_k = keep_largest(rc_k, rv_k, max(0, self.reduced_cap - 1))
            ins = int(np.searchsorted(rc_k, i))
            rc_k = np.insert(rc_k, ins, i)
            rv_k = np.insert(rv_k, ins, diag_val)
            records.append(
                (
                    i,
                    (lc_m, lv_m),
                    (rc_k, rv_k),
                    row_ops,
                    float(rc_k.size + lc_m.size),
                )
            )
        return records


def parallel_ilut_partitioned(
    A,
    m: int,
    t: float,
    nranks: int,
    *,
    reduced_cap: int | None = None,
    transport="simulator",
    seed: int = 0,
    **kwargs,
):
    """Parallel ILUT with the §7 partition-based interface factorization.

    Same signature spirit as :func:`repro.ilu.parallel.parallel_ilut`
    (including the ``transport=`` backend selector); returns a
    :class:`~repro.ilu.parallel.ParallelILUResult`.
    """
    from ..decomp import decompose
    from ..machine import CRAY_T3D, is_transport, resolve_transport, transport_name
    from .parallel import ParallelILUResult

    model = kwargs.pop("model", CRAY_T3D)
    decomp = kwargs.pop("decomp", None)
    method = kwargs.pop("method", "multilevel")
    if kwargs:
        raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
    if decomp is None:
        decomp = decompose(A, nranks, method=method, seed=seed)
    sim = resolve_transport(transport, nranks, model=model)
    owned = not is_transport(transport)
    try:
        engine = InterfacePartitionEngine(
            decomp, m, t, reduced_cap=reduced_cap, sim=sim, seed=seed
        )
        outcome = engine.run()
        return ParallelILUResult(
            factors=outcome.factors,
            decomp=decomp,
            num_levels=outcome.num_levels,
            level_sizes=outcome.level_sizes,
            modeled_time=sim.elapsed() if sim is not None else None,
            comm=sim.stats() if sim is not None else None,
            flops=outcome.flops,
            words_copied=outcome.words_copied,
            transport=transport_name(sim),
        )
    finally:
        if owned and sim is not None:
            sim.close()
