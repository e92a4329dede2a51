"""LogP/LogGP parameter extraction from VIBe measurements.

The paper's introduction argues that the LogP model [12] — latency L,
overhead o, gap g, processors P — "is not sufficient to provide answers"
about VIA component behaviour.  This module makes that argument
quantitative:

- :func:`fit_loggp` extracts LogGP parameters (we add Gap-per-byte G,
  the standard long-message extension) from base latency/bandwidth
  sweeps by least squares;
- :func:`evaluate_fit` scores the model's predictions against *other*
  VIBe micro-benchmarks (buffer reuse, multiple VIs) where a
  three-parameter linear model has no mechanism to follow the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..vibe.harness import TransferConfig, run_bandwidth, run_latency
from ..vibe.metrics import BenchResult

__all__ = ["LogGPFit", "fit_loggp", "extract", "evaluate_fit"]


@dataclass(frozen=True)
class LogGPFit:
    """LogGP parameters, times in µs, G in µs/byte."""

    provider: str
    L: float          # wire + fabric latency
    o: float          # per-message CPU overhead (one side)
    g: float          # per-message gap (small-message rate limit)
    G: float          # per-byte gap (1 / asymptotic bandwidth)
    residual_us: float  # RMS residual of the latency fit

    def predict_latency(self, nbytes: int) -> float:
        """One-way latency of an ``nbytes`` message: L + 2o + n*G."""
        return self.L + 2 * self.o + nbytes * self.G

    def predict_bandwidth(self, nbytes: int) -> float:
        """Streaming bandwidth in MB/s: n / max(g + n*G, tiny)."""
        per_msg = self.g + nbytes * self.G
        return nbytes / per_msg if per_msg > 0 else float("inf")

    @property
    def asymptotic_bandwidth(self) -> float:
        return 1.0 / self.G if self.G > 0 else float("inf")


def _fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares line ``y = a + b*x`` through the points: ``(a, b)``.

    The closed-form normal equations over centred ``math.fsum`` sums;
    needs at least two distinct ``x``.
    """
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    b = (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
         / math.fsum((x - mx) ** 2 for x in xs))
    return my - b * mx, b


def fit_loggp(latency: BenchResult, bandwidth: BenchResult,
              overhead_us: float | None = None) -> LogGPFit:
    """Least-squares LogGP fit from base latency + bandwidth sweeps.

    The latency sweep gives intercept ``L + 2o`` and slope ``G``; the
    bandwidth sweep gives the per-message gap ``g`` (intercept of
    ``n / bw(n)``).  ``o`` is split out of the intercept using the
    measured CPU time per message when available.
    """
    sizes = [float(p.param) for p in latency.points]
    lats = [float(p.latency_us) for p in latency.points]
    intercept, G = _fit_line(sizes, lats)
    resid = math.sqrt(math.fsum((intercept + G * s - y) ** 2
                                for s, y in zip(sizes, lats)) / len(lats))

    bw_sizes = [float(p.param) for p in bandwidth.points]
    per_msg = [s / p.bandwidth_mbs                # µs per message
               for s, p in zip(bw_sizes, bandwidth.points)]
    g, _Gb = _fit_line(bw_sizes, per_msg)

    if overhead_us is None:
        # attribute a quarter of the intercept to each side's overhead —
        # the conventional split when o cannot be measured directly
        o = intercept / 4.0
    else:
        o = overhead_us
    L = intercept - 2.0 * o
    return LogGPFit(latency.provider, L=L, o=o, g=g, G=G,
                    residual_us=resid)


def extract(provider: str, sizes: list[int] | None = None) -> LogGPFit:
    """Run the base benchmarks and fit LogGP in one step."""
    sizes = sizes or [4, 64, 1024, 4096, 12288, 28672]
    lat_points = []
    cpu_per_msg = []
    for s in sizes:
        m = run_latency(provider, TransferConfig(size=s))
        lat_points.append(m)
        # CPU time per message on the sending side: util × one-way time
        if m.cpu_send is not None:
            cpu_per_msg.append(m.cpu_send * m.latency_us)
    bw_points = [run_bandwidth(provider, TransferConfig(size=s))
                 for s in sizes]
    latency = BenchResult("base_latency", provider, lat_points)
    bandwidth = BenchResult("base_bandwidth", provider, bw_points)
    return fit_loggp(latency, bandwidth)


def evaluate_fit(fit: LogGPFit, observed: BenchResult,
                 metric: str = "latency_us") -> dict:
    """Score predictions against any latency-style sweep.

    Returns per-point relative errors and their mean — large errors on
    the reuse / multi-VI sweeps are the paper's point about LogP.
    """
    errors = []
    for p in observed.points:
        actual = p.get(metric)
        if actual is None:
            continue
        size = p.param if isinstance(p.param, (int, float)) else 0
        predicted = fit.predict_latency(int(size))
        errors.append((p.param, predicted, actual,
                       abs(predicted - actual) / actual))
    mean_err = sum(e[-1] for e in errors) / len(errors) if errors else None
    return {"points": errors, "mean_relative_error": mean_err}
