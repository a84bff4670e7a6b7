"""The benchmark's named workloads (why each one exists: README.md).

Partitioning, MIS and the TORSO-like mesh use the library's own ``seed=``
defaults.  The benchmark's ``--seed`` drives only the right-hand sides, so
one seed always gives the same inputs.  A seeded mesh would make each seed
a different problem: across five seeds GMRES took 83 to 145 iterations.

Each right-hand side is ``b = A x*`` for a manufactured solution
``x* = 1 + u`` with ``u`` uniform in [-1/2, 1/2].  Every workload solves
several, and the iteration count is their median: on one standard-normal
right-hand side it moved by up to 20% between seeds (116 to 152 on
``g0-rhs-p1``).  GMRES on the TORSO mesh is the most sensitive to the
right-hand side (81 to 107 iterations), so that workload solves eight.
So does ``g0-p16-sim``: its solves are cheap, and with four the median
iteration count still moved between 28.5 and 31 across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import CSRMatrix, ILUTParams, poisson2d, torso_like


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: Callable[[], CSRMatrix]
    tiny_matrix: Callable[[], CSRMatrix]  # the self-test's stand-in
    nranks: int
    params: ILUTParams
    transport: str
    n_rhs: int = 4

    def inputs(self, seed: int, tiny: bool) -> tuple[CSRMatrix, np.ndarray]:
        A = (self.tiny_matrix if tiny else self.matrix)()
        rng = np.random.default_rng(seed)
        x_star = 1.0 + rng.uniform(-0.5, 0.5, size=(self.n_rhs, A.shape[0]))
        return A, np.array([A.matvec(x) for x in x_star])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="g0-p16-sim",
            matrix=lambda: poisson2d(64),
            tiny_matrix=lambda: poisson2d(16),
            nranks=16,
            params=ILUTParams(fill=10, threshold=1e-4, k=2),
            transport="simulator",
            n_rhs=8,
        ),
        Workload(
            name="torso-p2-threads",
            matrix=lambda: torso_like(4000),
            tiny_matrix=lambda: torso_like(300),
            nranks=2,
            params=ILUTParams(fill=10, threshold=1e-4, k=2),
            transport="threads",
            n_rhs=8,
        ),
        Workload(
            name="g0-rhs-p1",
            matrix=lambda: poisson2d(128),
            tiny_matrix=lambda: poisson2d(16),
            nranks=1,
            params=ILUTParams(fill=5, threshold=1e-2, k=2),
            transport="simulator",
        ),
    )
}
