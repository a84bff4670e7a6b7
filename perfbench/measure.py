"""Measure one workload: the untraced end-to-end pass or the traced run.

Both passes repeat the same *round*, the sequence a user runs:

1. ``parallel_solve`` on the first right-hand side (time to solution);
2. set-up: ``decompose`` + ``parallel_ilut_star`` + the first
   ``ILUPreconditioner.apply``, which builds the level schedules lazily;
3. ``gmres`` with the ready preconditioner on every right-hand side.

The round calls the library through the names ``repro.solvers.driver``
imported, the same ones ``parallel_solve`` calls inside, so that the
traced run (:mod:`tracing`) sees the benchmark's calls and the driver's
through one set of rebound names.

Every operation is checked independently of ``repro``: the true relative
residual with scipy's CSR product, the converged flag, finite factors,
exact counts and modeled values that repeat across rounds and, on a real
transport, factors bit-identical to a simulator run of the same
decomposition.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.solvers.driver as driver
from repro import (
    CRAY_T3D,
    ILUPreconditioner,
    decompose,
    ilut,
    parallel_ilut_star,
    parallel_matvec,
    parallel_triangular_solve,
)
from repro.ilu.apply import LevelScheduledApplier
from repro.partition import edge_cut
from repro.solvers.modeled import model_gmres_time
from tracing import LAYERS, ROOT, Tracer, instrument
from workloads import Workload

RESTART = 20
TOL = 1e-8
# GMRES stops on the *preconditioned* residual; the true residual of an
# ILUT-preconditioned solve lands within ~10x of it (3.8e-8 seen on the
# TORSO mesh), so the independent check allows two orders of magnitude.
RESIDUAL_GATE = 1e-6
MIN_ROUNDS = 3
YARDSTICK_REPS = 5

# The host's speed drifts with its other tenants' load: on a shared 2-vCPU
# Xeon host, a fixed loop's time moved by up to 1.8x within a minute.  So
# every timed operation is bracketed by runs of a fixed probe, and the
# run's medians of wall time are scaled by REFERENCE_PROBE_S / the mean
# probe time of the run: seconds at the host speed at which the probe
# takes REFERENCE_PROBE_S, near its fastest times on that host.  The probe
# does what GMRES does between its Python statements: small gathers,
# scalings and sums.  Over ten runs of g0-p16-sim, the raw medians spread
# by 10% to 12% (quartile distance over median), the scaled ones by 2% to
# 5%.  Scaling each operation by its own bracket did worse on the
# multi-second ones (12% on parallel_solve): a bracket at either end says
# little about the seconds between.
PROBE_N = 4096
PROBE_LOOPS = 300
PROBES_PER_SIDE = 3
REFERENCE_PROBE_S = 3e-3

clock = time.perf_counter


class Host:
    """Times operations, and probes the host's speed around each one."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random(PROBE_N)
        self.order = rng.permutation(PROBE_N)
        self.log: list[tuple[float, float]] = []  # (wall time, mean probe) per operation

    def probe(self) -> float:
        """Wall time of a fixed loop of small numpy operations: the host's speed now."""
        t0 = clock()
        total = 0.0
        for _ in range(PROBE_LOOPS):
            y = self.x[self.order]
            y *= 1.0001
            total += float(y.sum())
        return clock() - t0

    def timed(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """``fn``'s result and wall time."""
        before = [self.probe() for _ in range(PROBES_PER_SIDE)]
        t0 = clock()
        out = fn(*args, **kwargs)
        wall = clock() - t0
        speed = statistics.fmean(before + [self.probe() for _ in range(PROBES_PER_SIDE)])
        self.log.append((wall, speed))
        return out, wall

    def scale(self) -> float:
        """Factor from this run's wall times to seconds at the reference speed."""
        return REFERENCE_PROBE_S / statistics.fmean(speed for _, speed in self.log)


class Ledger:
    """Operations attempted (a factorization or a solve), and every failure by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        """One operation and what its own checks found."""
        self.attempted += 1
        self.check(op, problems)

    def check(self, name: str, problems: list[str]) -> None:
        """A check across operations already recorded; a failure fails one more."""
        if problems:
            self.failed += 1
            self.failures += [f"{name}: {p}" for p in problems]


@dataclass
class Round:
    tts: list[float]
    setup: float
    solves: list[float]
    iters: list[int]
    report: Any  # ParallelSolveReport
    result: Any  # ParallelILUResult of the set-up
    peak_rss: float  # MiB, after the round
    exact: dict[str, Any] = field(default_factory=dict)


def digest(factors: Any) -> str:
    h = hashlib.sha256()
    for arr in (factors.L.indptr, factors.L.indices, factors.L.data,
                factors.U.indptr, factors.U.indices, factors.U.data, factors.perm):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def to_scipy(A: Any) -> sp.csr_matrix:
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def solution_problems(S: sp.csr_matrix, b: np.ndarray, x: np.ndarray, converged: bool) -> list[str]:
    problems = [] if converged else ["did not converge"]
    rel = float(np.linalg.norm(b - S @ x) / np.linalg.norm(b))
    if not rel <= RESIDUAL_GATE:
        problems.append(f"true relative residual {rel:.3e} > {RESIDUAL_GATE:.0e}")
    return problems


def factor_problems(result: Any) -> list[str]:
    f = result.factors
    if np.isfinite(f.L.data).all() and np.isfinite(f.U.data).all():
        return []
    return ["non-finite factors"]


def solve_exact(w: Workload, rep: Any) -> dict[str, Any]:
    """A ``parallel_solve`` report's counts and modeled values."""
    vals: dict[str, Any] = {
        "parallel_solve.num_matvec": rep.num_matvec,
        "parallel_solve.num_levels": rep.num_levels,
    }
    if w.transport == "simulator":
        vals |= {
            "modeled_factor_s": rep.factor_time,
            "modeled_solve_s": rep.solve_time,
            "modeled_trisolve_s": rep.precond_time,
        }
    return vals


def exact_values(w: Workload, rnd: Round) -> dict[str, Any]:
    """Counts and modeled values that must repeat exactly across rounds."""
    res = rnd.result
    vals = solve_exact(w, rnd.report) | {
        "gmres.num_matvec": tuple(rnd.iters),
        "factors.sha256": digest(res.factors),
        "ilu.levels": res.num_levels,
        "ilu.flops": res.flops,
        "machine.messages": res.comm.messages,
        "machine.words_sent": res.comm.words_sent,
        "machine.barriers": res.comm.barriers,
    }
    if w.transport == "simulator":
        vals["ilu.modeled_s"] = res.modeled_time
    return vals


def mismatches(first: dict[str, Any], again: dict[str, Any]) -> list[str]:
    return [f"{k} {again[k]!r} != first {v!r}" for k, v in first.items() if again[k] != v]


def end_to_end_solve(w: Workload, A: Any, S: sp.csr_matrix, b: np.ndarray,
                     ledger: Ledger, host: Host) -> tuple[Any, float]:
    p = w.params
    rep, elapsed = host.timed(driver.parallel_solve, A, b, w.nranks, m=p.fill, t=p.threshold,
                              k=p.k, restart=RESTART, tol=TOL, transport=w.transport)
    ledger.record("parallel_solve", solution_problems(S, b, rep.x, rep.converged))
    return rep, elapsed


def set_up(w: Workload, A: Any, b: np.ndarray) -> tuple[Any, ILUPreconditioner]:
    d = driver.decompose(A, w.nranks)
    res = driver.parallel_ilut_star(A, w.params, w.nranks, decomp=d, transport=w.transport)
    M = ILUPreconditioner(res.factors)
    M.apply(b)
    return res, M


def one_round(w: Workload, A: Any, S: sp.csr_matrix, B: np.ndarray, ledger: Ledger,
              host: Host) -> Round:
    rep, tts = end_to_end_solve(w, A, S, B[0], ledger, host)

    (res, M), setup = host.timed(set_up, w, A, B[0])
    ledger.record("setup", factor_problems(res))

    # a second time to solution: parallel_solve is the costliest operation,
    # so its median needs the most samples
    again, tts_again = end_to_end_solve(w, A, S, B[0], ledger, host)
    ledger.check("repeat", mismatches(solve_exact(w, rep), solve_exact(w, again)))

    solves: list[float] = []
    iters: list[int] = []
    for b in B:
        g, elapsed = host.timed(driver.gmres, A, b, restart=RESTART, tol=TOL, M=M)
        solves.append(elapsed)
        iters.append(g.num_matvec)
        ledger.record("gmres", solution_problems(S, b, g.x, g.converged))
    rnd = Round([tts, tts_again], setup, solves, iters, rep, res, peak_rss_mib())
    rnd.exact = exact_values(w, rnd)
    return rnd


def repeat_problems(w: Workload, first: Round, rnd: Round) -> list[str]:
    """Exact values against the first round's, and two cross-checks within the round."""
    rep = rnd.report
    problems = mismatches(first.exact, rnd.exact)
    if rep.num_matvec != rnd.iters[0]:
        problems.append(
            f"parallel_solve took {rep.num_matvec} matvecs, the ready "
            f"preconditioner {rnd.iters[0]}"
        )
    if w.transport == "simulator":
        mine = modeled(rnd, None).solve_s(w, rep.x.size, rep.num_matvec)
        if mine != rep.solve_time:
            problems.append(f"modeled solve {mine!r} != parallel_solve's {rep.solve_time!r}")
    return problems


@dataclass
class Modeled:
    """A factorization's modeled time and its modeled per-application probes."""

    factor_s: float
    matvec_s: float
    trisolve_s: float

    def solve_s(self, w: Workload, n: int, num_matvec: float) -> float:
        """The modeled GMRES time, as ``parallel_solve`` computes it."""
        return model_gmres_time(num_matvec, n, RESTART, w.nranks, CRAY_T3D,
                                self.matvec_s, self.trisolve_s)


class SimulatorReference:
    """The simulator's run of a real-transport workload's decomposition.

    Untimed, once per invocation.  It supplies the bit-identity reference
    for the factors, and the modeled times: on a real transport
    ``ParallelSolveReport`` feeds wall-clock probes into the model
    formula, so the modeled figures come from the simulator instead.
    """

    def __init__(self, w: Workload, A: Any, ledger: Ledger) -> None:
        d = decompose(A, w.nranks)
        res = parallel_ilut_star(A, w.params, w.nranks, decomp=d, transport="simulator")
        ledger.record("simulator reference", factor_problems(res))
        ones = np.ones(A.shape[0])
        self.digest = digest(res.factors)
        self.modeled = Modeled(
            res.modeled_time,
            parallel_matvec(A, d, ones, transport="simulator").modeled_time,
            parallel_triangular_solve(
                res.factors, ones, nranks=w.nranks, transport="simulator"
            ).modeled_time,
        )

    def identity_problems(self, w: Workload, rnd: Round) -> list[str]:
        if digest(rnd.result.factors) == self.digest:
            return []
        return [f"{w.transport} factors differ from the simulator's"]


def modeled(rnd: Round, ref: SimulatorReference | None) -> Modeled:
    rep = rnd.report
    if ref is None:
        return Modeled(rep.factor_time, rep.matvec_time, rep.precond_time)
    return ref.modeled


def measured_rounds(w: Workload, A: Any, S: sp.csr_matrix, B: np.ndarray, seconds: float,
                    ledger: Ledger, ref: SimulatorReference | None, host: Host) -> list[Round]:
    """At least MIN_ROUNDS rounds, then more while the next one fits in ``seconds``."""
    rounds: list[Round] = []
    start = clock()
    while True:
        rnd = one_round(w, A, S, B, ledger, host)
        ledger.check("repeat", repeat_problems(w, rounds[0] if rounds else rnd, rnd))
        if not rounds and ref is not None:
            ledger.check("bit-identity", ref.identity_problems(w, rnd))
        rounds.append(rnd)
        elapsed = clock() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# metric tables: name -> (value, unit, samples)

Metrics = dict[str, tuple[float, str, int]]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: Workload, rounds: list[Round], ref: SimulatorReference | None,
               host: Host) -> Metrics:
    solves = [s for r in rounds for s in r.solves]
    iters = statistics.median(rounds[0].iters)
    mod = modeled(rounds[0], ref)
    n = len(rounds)
    n_rhs = len(rounds[0].iters)
    tts = [t for r in rounds for t in r.tts]
    scale = host.scale()
    return {
        "time_to_solution_s": (statistics.median(tts) * scale, "s", len(tts)),
        "setup_s": (statistics.median(r.setup for r in rounds) * scale, "s", n),
        "solve_s": (statistics.median(solves) * scale, "s", len(solves)),
        "gmres_iters": (iters, "count", n_rhs),
        "modeled_factor_s": (mod.factor_s, "model_s", n),
        "modeled_solve_s": (mod.solve_s(w, rounds[0].report.x.size, iters), "model_s", n_rhs),
        # the peak grows by a few MiB a round, so it is read after a fixed number
        "peak_rss_mb": (rounds[MIN_ROUNDS - 1].peak_rss, "MiB", 1),
    }


def spilu_fill_factor(w: Workload, A: Any) -> float:
    """SuperLU's fill_factor bounds nnz(L+U)/nnz(A); ILUT(m) keeps m per L and U row."""
    return (2 * w.params.fill + 1) * A.shape[0] / A.nnz


def both_sweeps(L: sp.csr_matrix, U: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    y = spla.spsolve_triangular(L, b, lower=True, unit_diagonal=True)
    return spla.spsolve_triangular(U, y, lower=False)


def probes(w: Workload, A: Any, S: sp.csr_matrix, b: np.ndarray, tracer: Tracer) -> None:
    """Single-layer baselines run inside the traced root span."""
    tracer.call("kernels.ilut_seq", ilut, A, w.params)
    d1 = tracer.call("decomp.decompose_p1", decompose, A, 1)
    tracer.call("ilu.factor_p1", parallel_ilut_star, A, w.params, 1, decomp=d1,
                transport=w.transport)
    csc = S.tocsc()
    for _ in range(YARDSTICK_REPS):
        lu = tracer.call("yardstick.spilu", spla.spilu, csc, drop_tol=w.params.threshold,
                         fill_factor=spilu_fill_factor(w, A))
    L, U = lu.L.tocsr(), lu.U.tocsr()
    for _ in range(YARDSTICK_REPS):
        tracer.call("yardstick.spsolve_triangular", both_sweeps, L, U, b)


def traced_run(w: Workload, A: Any, S: sp.csr_matrix, B: np.ndarray, seconds: float,
               ledger: Ledger, ref: SimulatorReference | None) -> tuple[Metrics, Tracer]:
    # untraced baseline for the tracing overhead
    baseline: list[Any] = []
    start = clock()
    while len(baseline) < 2 or clock() - start < 0.4 * seconds:
        baseline.append(end_to_end_solve(w, A, S, B[0], ledger, Host()))
    untraced_tts = statistics.median(t for _, t in baseline)

    tracer = Tracer()
    with instrument(tracer), tracer.span(ROOT):
        rnd = one_round(w, A, S, B, ledger, Host())
        d = rnd.result.decomp
        cut = tracer.call("partition.edge_cut", edge_cut, d.graph, d.part)
        probes(w, A, S, B[0], tracer)

    ledger.check("repeat", repeat_problems(w, rnd, rnd))
    first = solve_exact(w, baseline[0][0])
    for rep in [rep for rep, _ in baseline[1:]] + [rnd.report]:
        ledger.check("repeat", mismatches(first, solve_exact(w, rep)))
    if ref is not None:
        ledger.check("bit-identity", ref.identity_problems(w, rnd))
    return layer_metrics(rnd, ref, tracer, cut, untraced_tts, ledger), tracer


def layer_metrics(rnd: Round, ref: SimulatorReference | None, tracer: Tracer, cut: float,
                  untraced_tts: float, ledger: Ledger) -> Metrics:
    res, rep = rnd.result, rnd.report
    comm = res.comm
    root = tracer.named(ROOT)[0]
    own = tracer.self_times()
    layers = tracer.layer_self_times()
    wall = root.duration
    if not math.isclose(sum(layers.values()) + own[root.id], wall, rel_tol=1e-9, abs_tol=1e-9):
        ledger.check("trace accounting", ["layer self times do not sum to the root span"])

    gmres_spans = tracer.named("solvers.gmres")
    applies = [[c for c in tracer.children(g) if c.name == "solvers.precond_apply"]
               for g in gmres_spans]
    in_apply = sum(c.duration for group in applies for c in group)
    applier = LevelScheduledApplier(res.factors)

    def timed(name: str) -> tuple[float, str, int]:
        return tracer.median(name), "s", len(tracer.named(name))

    factor_s = tracer.median("ilu.factor")
    ilut_seq_s = tracer.median("kernels.ilut_seq")
    apply_s = tracer.median("kernels.apply")
    spilu_s = tracer.median("yardstick.spilu")
    spsolve_s = tracer.median("yardstick.spsolve_triangular")
    counted = len(gmres_spans)

    m: Metrics = {
        "decomp.decompose_s": timed("decomp.decompose"),
        "decomp.interface_rows": (int(res.decomp.is_interface.sum()), "rows", 1),
        "decomp.edge_cut": (cut, "edges", 1),
        "ilu.factor_s": timed("ilu.factor"),
        "ilu.levels": (res.num_levels, "count", 1),
        "ilu.flops": (res.flops, "flop", 1),
        "ilu.mflops": (res.flops / factor_s / 1e6, "Mflop/s", 1),
        "ilu.factor_nnz": (res.factors.nnz, "count", 1),
        "ilu.factor_over_seq": (factor_s / ilut_seq_s, "ratio", 1),
        "ilu.speedup_vs_p1": (tracer.median("ilu.factor_p1") / factor_s, "ratio", 1),
        "machine.messages": (comm.messages, "count", 1),
        "machine.words_sent": (comm.words_sent, "words", 1),
        "machine.barriers": (comm.barriers, "count", 1),
        "machine.load_imbalance": (comm.load_imbalance(), "ratio", 1),
        "machine.recoveries": (res.recoveries + rep.recoveries, "count", 1),
        "kernels.ilut_seq_s": timed("kernels.ilut_seq"),
        "kernels.apply_build_s": timed("kernels.apply_build"),
        "kernels.apply_s": timed("kernels.apply"),
        "kernels.apply_levels": (applier.forward_levels + applier.backward_levels, "count", 1),
        "solvers.precond_share": (in_apply / sum(g.duration for g in gmres_spans), "ratio",
                                  counted),
        "solvers.precond_applies": (statistics.median(len(a) for a in applies), "count",
                                    counted),
        "solvers.trisolve_s": timed("solvers.trisolve_probe"),
        "solvers.matvec_s": timed("solvers.matvec_probe"),
        "solvers.trisolve_modeled_s": (modeled(rnd, ref).trisolve_s, "model_s", 1),
        "sparse.matvec_s": timed("sparse.matvec"),
        "yardstick.spilu_s": timed("yardstick.spilu"),
        "yardstick.spsolve_triangular_s": timed("yardstick.spsolve_triangular"),
        "yardstick.factor_over_spilu": (factor_s / spilu_s, "ratio", 1),
        "yardstick.apply_over_spsolve": (apply_s / spsolve_s, "ratio", 1),
        "trace.wall_s": (wall, "s", 1),
        "trace.root_self_s": (own[root.id], "s", 1),
        "trace.overhead_s": (tracer.median("solvers.parallel_solve") - untraced_tts, "s", 1),
    }
    m |= {f"self.{layer}_s": (layers[layer], "s", 1) for layer in LAYERS}
    return m
