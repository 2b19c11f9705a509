"""The benchmark's workloads, built from a seed through the public API.

Each workload object does its set-up in the constructor (the part a user pays
before the first reconstruction): it builds the inputs of its `n_ops`
distinct ops. `op(i)` runs one timed operation on the inputs of op i and
leaves them as they were, so the worker can repeat every op in rounds.
An op returns an `OpOutput`: the reconstructed state, the state it
should match and the cost trace the optimizer reported. The program under
test only ever sees the generated states and datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from qwndo import maxlik, measurement, ndo, training, walk

# open_walk_suite in tests/test_acceptance.py draws its delta_beta values from
# this generator; without a seed, recon-n5 runs its instances k=0 and k=4.
ACCEPTANCE_RNG_SEED = 1005
ACCEPTANCE_PAIR = (0, 4)
PURE_MIXED_SPLIT = 1.5  # delta_beta below: nearly pure target; above: strongly mixed


@dataclass
class OpOutput:
    rho: np.ndarray
    target: np.ndarray
    costs: list[float]


@dataclass(frozen=True)
class ReconSpec:
    n_steps: int = 5
    m_h: int = 15
    m_a: int = 15
    warmup_iters: int = 100
    polish_iters: int = 20
    n_ops: int = 4  # nearly pure, strongly mixed, nearly pure, strongly mixed


@dataclass(frozen=True)
class MaxlikSpec:
    n_steps: int = 10
    shots: int = 10_000
    max_iters: int = 100
    n_ops: int = 6  # mixing, depolarizing, dephasing, twice


def _hadamard_dephasing(n_steps: int, delta_beta: float) -> np.ndarray:
    return walk.evolve(
        walk.WalkConfig(n_steps, (np.pi / 4,) * n_steps, noise="dephasing", delta_beta=delta_beta)
    )


def recon_instance(seed: int | None, i: int) -> tuple[float, int]:
    """(delta_beta, fit seed) of op i; even ops nearly pure, odd ops strongly mixed."""
    if seed is None and i < len(ACCEPTANCE_PAIR):
        k = ACCEPTANCE_PAIR[i]
        draws = np.random.default_rng(ACCEPTANCE_RNG_SEED).uniform(0.0, np.pi, k + 1)
        return float(draws[k]), k
    rng = np.random.default_rng((0 if seed is None else seed, i))
    lo, hi = (0.0, PURE_MIXED_SPLIT) if i % 2 == 0 else (PURE_MIXED_SPLIT, np.pi)
    return float(rng.uniform(lo, hi)), int(rng.integers(2**31))


class ReconN5:
    """One `fit_ndo` reconstruction per op (L-BFGS warm-up, GNGD polish)."""

    def __init__(self, seed: int | None, spec: ReconSpec = ReconSpec()):
        self.spec = spec
        self.n_ops = spec.n_ops
        self.d = walk.dim(spec.n_steps)
        self.bases = measurement.all_basis_unitaries(spec.n_steps)
        self.inputs = []
        for i in range(spec.n_ops):
            delta_beta, fit_seed = recon_instance(seed, i)
            rho = _hadamard_dephasing(spec.n_steps, delta_beta)
            self.inputs.append((rho, measurement.generate_dataset(rho, spec.n_steps), fit_seed))

    def op(self, i: int) -> OpOutput:
        rho, ds, fit_seed = self.inputs[i]
        s = self.spec
        params, report = training.fit_ndo(
            ds, self.bases, self.d, s.m_h, s.m_a, seed=fit_seed,
            warmup_iters=s.warmup_iters, polish_iters=s.polish_iters,
        )
        return OpOutput(ndo.density_matrix(params), rho, report.costs)


MAXLIK_CHANNELS = ("mixing", "depolarizing", "dephasing")


def maxlik_walk(n_steps: int, seed: int | None, i: int) -> tuple[walk.WalkConfig, int, int]:
    """Disordered-coin walk of op i (channel cycles with i), dataset seed, fit seed."""
    rng = np.random.default_rng((0 if seed is None else seed, i))
    angles = tuple(walk.disordered_angles(n_steps, int(rng.integers(2**31))))
    noise = MAXLIK_CHANNELS[i % len(MAXLIK_CHANNELS)]
    if noise == "mixing":
        w_s, w_l = rng.uniform(0.05, 0.15, 2)
        config = walk.WalkConfig(n_steps, angles, noise=noise, w_s=float(w_s), w_l=float(w_l))
    elif noise == "depolarizing":
        config = walk.WalkConfig(n_steps, angles, noise=noise, p=float(rng.uniform(0.1, 0.2)))
    else:
        config = walk.WalkConfig(n_steps, angles, noise=noise, delta_beta=float(rng.uniform(1.0, 2.0)))
    return config, int(rng.integers(2**31)), int(rng.integers(2**31))


class MaxlikN10:
    """One maximum-likelihood CG fit per op on a shot-sampled dataset."""

    def __init__(self, seed: int | None, spec: MaxlikSpec = MaxlikSpec()):
        self.spec = spec
        self.n_ops = spec.n_ops
        self.bases = measurement.all_basis_unitaries(spec.n_steps)
        self.inputs = []
        for i in range(spec.n_ops):
            config, ds_seed, fit_seed = maxlik_walk(spec.n_steps, seed, i)
            rho = walk.evolve(config)
            ds = measurement.generate_dataset(rho, spec.n_steps, shots=spec.shots, seed=ds_seed)
            self.inputs.append((rho, ds, fit_seed))

    def op(self, i: int) -> OpOutput:
        rho, ds, fit_seed = self.inputs[i]
        est, report = maxlik.maxlik_fit(ds, self.bases, seed=fit_seed, max_iters=self.spec.max_iters)
        return OpOutput(est, rho, report.costs)


WORKLOADS = {
    "recon-n5": (ReconN5, ReconSpec()),
    "maxlik-n10": (MaxlikN10, MaxlikSpec()),
}

# Sizes small enough for the harness's own smoke test to run in seconds.
TINY_SPECS = {
    "recon-n5": replace(ReconSpec(), n_steps=1, m_h=2, m_a=2, warmup_iters=20, polish_iters=10),
    "maxlik-n10": replace(MaxlikSpec(), n_steps=2, shots=1000, max_iters=50),
}


def build(name: str, seed: int | None, tiny: bool = False):
    cls, spec = WORKLOADS[name]
    return cls(seed, TINY_SPECS[name] if tiny else spec)
