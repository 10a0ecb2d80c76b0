"""The benchmark's workloads: what each one builds, how accurate its solves
must be, and why it is in the benchmark.

Every workload is a closed loop in one process: one pipeline pass
(build_problem, build_dissection, factorize, then one solve per right-hand
side) starts only after the previous one has finished. The matrix of a
workload is fixed; the seed picks only the extra right-hand sides, so the
factorization, its size and its accuracy on the load vector repeat exactly
from seed to seed and only the timings and the random columns vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-4


@dataclass(frozen=True)
class Workload:
    """One benchmark case.

    A solve fails when it raises, returns a non-finite value, or leaves a
    relative residual above ``target_multiple * eps``; ``target_reason``
    says why that multiple was chosen.
    """

    name: str
    descriptor: str
    target_n: int
    num_rhs: int
    target_multiple: float
    target_reason: str
    why: str
    eps: float = EPS
    # listed in BENCHMARK.json, so its end-to-end metrics are gated
    gated: bool = True

    @property
    def accuracy_target(self):
        return self.target_multiple * self.eps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="contrast-sym",
            descriptor="laplace-contrast:rho=100,seed=1",
            target_n=65536,
            num_rhs=8,
            target_multiple=1000.0,
            target_reason=(
                "the 1e4 coefficient jump amplifies the eps-level compression "
                "error on rough right-hand sides: seeded normal columns reach "
                "1e-2 to 4.2e-2 (100-420 x eps) at the seed commit, the load "
                "vector 1.7e-4; 1000 x eps leaves over 2x headroom"
            ),
            why=(
                "symmetric high-contrast elliptic problem at n=65k where "
                "dissection and the Schur-complement bookkeeping do most of "
                "the work and the solves almost none"
            ),
            # Runs by hand only. Its layers are all measured on the two gated
            # workloads, and with three workloads the run budget allows only
            # three 10 s passes per run, too few for steady medians.
            gated=False,
        ),
        Workload(
            name="aniso-unsym",
            descriptor="laplace-aniso:d12=1,d21=0",
            target_n=65536,
            num_rhs=8,
            target_multiple=100.0,
            target_reason=(
                "seeded normal columns reach 1.3e-3 to 3.2e-3 (13-32 x eps) "
                "at the seed commit, the load vector 3.8e-4; 100 x eps leaves "
                "over 3x headroom"
            ),
            why=(
                "unsymmetric elliptic problem at n=65k where dissection, "
                "pivoted LU, mirror Schur blocks and the joint ID do most of "
                "the work and the solves little"
            ),
        ),
        Workload(
            name="poly-multirhs",
            descriptor="helmholtz-poly:k=20",
            target_n=16384,
            num_rhs=64,
            target_multiple=10.0,
            target_reason=(
                "compression is almost bypassed at this size: seeded normal "
                "columns reach 8e-5 to 1.4e-4 (about 1 x eps) at the seed "
                "commit, the load vector 9e-6; 10 x eps leaves 7x headroom"
            ),
            why=(
                "indefinite Helmholtz on a Delaunay mesh at n=16k, factored "
                "once and solved 64 times: solves dominate and compression is "
                "nearly bypassed, so factor-side changes should show no change"
            ),
        ),
    )
}


def right_hand_sides(rhs, num_rhs, seed):
    """The load vector followed by num_rhs - 1 seeded standard normal columns."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), len(rhs)]))
    extra = rng.standard_normal((len(rhs), num_rhs - 1))
    return np.column_stack([rhs, extra])
