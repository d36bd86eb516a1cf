"""Roofline performance model — the benchmark-testbed substitute.

For every (application, model, platform) the model produces a synthetic
"measured" figure of merit:

``perf = roofline(platform, app) × support(model, platform) ×
model_factor(model, platform_kind) × noise``

where ``roofline`` picks the bandwidth or compute ceiling by the app's
arithmetic intensity, ``support`` is 0/1 (a model that cannot target a
platform scores zero — CUDA off NVIDIA, TBB on GPUs, ...), the model
factors encode well-documented efficiency relationships (first-party ≥
portability layers ≥ directives-on-GPU, host OpenMP ≈ native on CPUs,
serial ≈ single-core), and noise is a seeded ±3% deterministic jitter.

These choices make "who wins, by roughly what factor, where crossovers
fall" match the paper's cascade plots without pretending to reproduce
absolute testbed numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.perfport.platforms import PLATFORMS, Platform

#: Application characterisation (Table II "Type" column).
APP_INTENSITY = {
    "babelstream": 0.08,  # memory BW bound
    "babelstream-fortran": 0.08,
    "minibude": 14.0,  # compute bound
    "cloverleaf": 0.2,  # memory BW / structured grid
    "tealeaf": 0.15,  # memory BW / structured grid (CG solver)
}

#: model -> platform kinds it can execute on at all.
MODEL_SUPPORT = {
    "serial": {"cpu"},
    "omp": {"cpu"},
    "omp-taskloop": {"cpu"},
    "omp-target": {"cpu", "gpu"},
    "cuda": {"gpu:NVIDIA"},
    "hip": {"gpu:AMD", "gpu:NVIDIA"},
    "sycl-acc": {"cpu", "gpu"},
    "sycl-usm": {"cpu", "gpu"},
    "kokkos": {"cpu", "gpu"},
    "tbb": {"cpu"},
    "stdpar": {"cpu", "gpu:NVIDIA", "gpu:Intel"},
    # Fortran models
    "sequential": {"cpu"},
    "array": {"cpu"},
    "doconcurrent": {"cpu", "gpu:NVIDIA"},
    "openacc": {"cpu", "gpu:NVIDIA", "gpu:AMD"},
    "openacc-array": {"cpu", "gpu:NVIDIA", "gpu:AMD"},
}

#: model -> (cpu efficiency factor, gpu efficiency factor) against roofline.
MODEL_FACTOR = {
    "serial": (0.035, 0.0),
    "sequential": (0.035, 0.0),
    "array": (0.040, 0.0),
    "omp": (0.92, 0.0),
    "omp-taskloop": (0.84, 0.0),
    "omp-target": (0.78, 0.86),
    "cuda": (0.0, 0.95),
    "hip": (0.0, 0.93),
    "sycl-acc": (0.80, 0.88),
    "sycl-usm": (0.82, 0.86),
    "kokkos": (0.88, 0.90),
    "tbb": (0.86, 0.0),
    "stdpar": (0.80, 0.82),
    "doconcurrent": (0.80, 0.75),
    "openacc": (0.045, 0.70),  # single-threaded on CPU: GCC QoI issue (§V-B)
    "openacc-array": (0.05, 0.70),
}


def _supported(model: str, platform: Platform) -> bool:
    rules = MODEL_SUPPORT.get(model, set())
    if platform.kind in rules:
        return True
    return f"{platform.kind}:{platform.vendor}" in rules


@dataclass
class EfficiencyMatrix:
    """models × platforms application-efficiency matrix in [0, 1]."""

    app: str
    models: list[str]
    platforms: list[str]
    #: raw synthetic performance (figure of merit, higher is better)
    perf: np.ndarray
    #: application efficiency: perf / best perf on that platform
    eff: np.ndarray

    def efficiency(self, model: str, platform: str) -> float:
        return float(self.eff[self.models.index(model), self.platforms.index(platform)])

    def row(self, model: str) -> dict[str, float]:
        i = self.models.index(model)
        return dict(zip(self.platforms, self.eff[i].tolist()))

    def to_csv(self) -> str:
        lines = ["model," + ",".join(self.platforms)]
        for m, row in zip(self.models, self.eff):
            lines.append(m + "," + ",".join(f"{v:.4f}" for v in row))
        return "\n".join(lines)


class PerfModel:
    """Deterministic synthetic benchmark results."""

    def __init__(self, seed: int = 20240817):
        self.seed = seed

    def roofline(self, app: str, platform: Platform) -> float:
        """Attainable GFLOP/s by the classic roofline (min of ceilings)."""
        intensity = APP_INTENSITY.get(app, 1.0)
        return min(platform.flops, platform.mem_bw * intensity)

    def performance(self, app: str, model: str, platform: Platform) -> float:
        """Synthetic measured figure of merit; 0.0 when unsupported."""
        if not _supported(model, platform):
            return 0.0
        cpu_f, gpu_f = MODEL_FACTOR.get(model, (0.5, 0.5))
        factor = cpu_f if platform.kind == "cpu" else gpu_f
        if factor <= 0.0:
            return 0.0
        base = self.roofline(app, platform) * factor
        # seeded deterministic jitter: ±3%, stable across runs; sha256, not
        # hash(), because str hashes are salted per process
        key = str((self.seed, app, model, platform.abbr)).encode()
        rng = np.random.default_rng(int.from_bytes(hashlib.sha256(key).digest()[:4], "big"))
        return base * (1.0 + rng.uniform(-0.03, 0.03))

    def efficiency_matrix(
        self,
        app: str,
        models: Sequence[str],
        platforms: Optional[Sequence[Platform]] = None,
    ) -> EfficiencyMatrix:
        plats = list(platforms) if platforms is not None else list(PLATFORMS)
        perf = np.zeros((len(models), len(plats)))
        with obs.span("perfmodel", app=app, models=len(models), platforms=len(plats)):
            for i, m in enumerate(models):
                for j, p in enumerate(plats):
                    perf[i, j] = self.performance(app, m, p)
        best = perf.max(axis=0)
        eff = np.where(best > 0, perf / np.where(best > 0, best, 1.0), 0.0)
        return EfficiencyMatrix(
            app=app,
            models=list(models),
            platforms=[p.abbr for p in plats],
            perf=perf,
            eff=eff,
        )
