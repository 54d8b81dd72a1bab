"""Explicit-constant ledger for the stability analysis.

Evaluates every closed-form constant the analysis needs from
(n, rho, area, K1, K2, K3) and checks theorem applicability
(oscillation below the smallness threshold). The elliptic-theory
constants K1, K2, K3 are user inputs; one left out (None) is the
placeholder 1.0, and a report with all three left out is flagged as
placeholder.

Several downstream constants grow astronomically (the chain count N0 and
the amplification factor C1 in particular); those are always computed in
log space and reported both ways, with a saturation flag when the linear
form over- or underflows double precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

_LOG10_MAX = 308.0


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def default_delta(n: int, rho: float) -> float:
    """Chain mesh size: min(rho/2^6, rho/(8 sqrt(n)))."""
    return min(rho / 2.0**6, rho / (8.0 * math.sqrt(n)))


@dataclass(frozen=True)
class ConstantsReport:
    n: int
    rho: float
    area: float
    k1: float
    k2: float
    k3: float
    k_placeholder: bool

    omega_n: float
    delta: float
    big_l: float          # length budget of piecewise-geodesic paths
    r0: float             # base chain radius rho*sin(delta/(2 rho))
    eps0: float
    n0: int               # chain count bound
    eps1: float
    eps2: float
    eps3: float
    eps: float
    c1: float
    c: float
    diam_bound: float
    eps_corollary: float

    log10_c1: float
    log10_c: float
    log10_eps2: float
    log10_eps3: float
    saturated: bool
    gradient_bound_m: float = field(default=1.0 / math.sqrt(3.0))

    def to_dict(self) -> dict:
        return {
            "inputs": {
                "n": self.n,
                "rho": self.rho,
                "area": self.area,
                "k1": self.k1,
                "k2": self.k2,
                "k3": self.k3,
                "k_placeholder": self.k_placeholder,
            },
            "omega_n": self.omega_n,
            "delta": self.delta,
            "L": self.big_l,
            "r0": self.r0,
            "eps0": self.eps0,
            "N0": self.n0,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "eps3": self.eps3,
            "eps": self.eps,
            "C1": self.c1,
            "C": self.c,
            "diam_bound": self.diam_bound,
            "eps_corollary": self.eps_corollary,
            "log10_C1": self.log10_c1,
            "log10_C": self.log10_c,
            "log10_eps2": self.log10_eps2,
            "log10_eps3": self.log10_eps3,
            "saturated": self.saturated,
            "gradient_bound_M": self.gradient_bound_m,
            "notes": self._notes(),
        }

    def _notes(self) -> list[str]:
        notes = [
            "eps2 taken as equality 1/(2^6 C1); the source states it as an upper bound",
            "gradient_bound_M is the graph-gradient sup at half the touching radius",
        ]
        if self.k_placeholder:
            notes.insert(0, "K1,K2,K3 are PLACEHOLDERS (=1); supply measured elliptic constants")
        if self.saturated:
            notes.append("C1/C overflow double precision; trust the log10 fields")
        return notes

    def table(self) -> str:
        rows = [
            ("n", f"{self.n}"),
            ("rho", f"{self.rho:.12g}"),
            ("area", f"{self.area:.12g}"),
            ("omega_n", f"{self.omega_n:.12g}"),
            ("delta", f"{self.delta:.12g}"),
            ("L", f"{self.big_l:.12g}"),
            ("r0", f"{self.r0:.12g}"),
            ("eps0", f"{self.eps0:.12g}"),
            ("N0", f"{self.n0}"),
            ("eps1", f"{self.eps1:.12g}"),
            ("eps2", f"{self.eps2:.12g} (log10 {self.log10_eps2:.6g})"),
            ("eps3", f"{self.eps3:.12g} (log10 {self.log10_eps3:.6g})"),
            ("eps", f"{self.eps:.12g}"),
            ("C1", f"{self.c1:.12g} (log10 {self.log10_c1:.6g})"),
            ("C", f"{self.c:.12g} (log10 {self.log10_c:.6g})"),
            ("diam_bound", f"{self.diam_bound:.12g}"),
            ("eps_corollary", f"{self.eps_corollary:.12g}"),
            ("K1,K2,K3", f"{self.k1}, {self.k2}, {self.k3}" + ("  [PLACEHOLDER]" if self.k_placeholder else "")),
            ("grad bound M", f"{self.gradient_bound_m:.12g}"),
        ]
        width = max(len(k) for k, _ in rows)
        lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
        for note in self._notes():
            lines.append(f"# {note}")
        return "\n".join(lines)


def compute_constants(
    n: int,
    rho: float,
    area: float,
    k1: float | None = None,
    k2: float | None = None,
    k3: float | None = None,
    delta: float | None = None,
) -> ConstantsReport:
    placeholder = k1 is None and k2 is None and k3 is None
    k1, k2, k3 = (1.0 if k is None else k for k in (k1, k2, k3))
    if rho <= 0 or area <= 0 or k1 <= 0 or k2 <= 0 or k3 <= 0:
        raise ValueError("all ledger inputs must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("dimension n must be at least 1")
    if n not in (1, 2):
        warnings.warn(f"ledger evaluated at n={n}; only n=1,2 are exercised by the test-suite")

    omega_n = unit_ball_volume(n)
    if delta is None:
        delta = default_delta(n, rho)
    big_l = area * 2.0**n / (omega_n * delta**n)
    r0 = rho * math.sin(delta / (2.0 * rho))
    eps0 = min(0.5, rho / (16.0 * big_l) * math.sin(delta / (2.0 * rho)))

    # N0 = 1 + floor(log_{1-eps0}(1/2)); log1p keeps the eps0 -> 0 limit stable
    n0 = 1 + math.floor(math.log(0.5) / math.log1p(-eps0))

    eps1 = 1.0 / (1.0 + 1.25 * k1**2)
    base = (1.0 + r0 * math.sqrt(5.0)) * k1 + 1.0
    log10_c1 = (n0 + 1) * math.log10(base)
    saturated = log10_c1 > _LOG10_MAX
    c1 = math.inf if saturated else 10.0**log10_c1

    log10_eps2 = -math.log10(2.0**6) - log10_c1
    log10_eps3 = math.log10(delta / rho) - log10_c1
    eps2 = 0.0 if log10_eps2 < -_LOG10_MAX else 10.0**log10_eps2
    eps3 = 0.0 if log10_eps3 < -_LOG10_MAX else 10.0**log10_eps3
    eps = min(eps0, eps1, eps2, eps3)

    log10_c = math.log10(1.25) + log10_c1 + math.log10(k1) + math.log10(k2) + math.log10(k3)
    c = math.inf if log10_c > _LOG10_MAX else 10.0**log10_c
    diam_bound = area * 2.0 ** (2 * n) / (omega_n * rho**n)
    half_rho_over_c = 0.0 if math.isinf(c) else rho / (2.0 * c)
    eps_corollary = min(eps, half_rho_over_c)

    return ConstantsReport(
        n=n,
        rho=float(rho),
        area=float(area),
        k1=float(k1),
        k2=float(k2),
        k3=float(k3),
        k_placeholder=placeholder,
        omega_n=omega_n,
        delta=float(delta),
        big_l=big_l,
        r0=r0,
        eps0=eps0,
        n0=int(n0),
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps=eps,
        c1=c1,
        c=c,
        diam_bound=diam_bound,
        eps_corollary=eps_corollary,
        log10_c1=log10_c1,
        log10_c=log10_c,
        log10_eps2=log10_eps2,
        log10_eps3=log10_eps3,
        saturated=saturated,
    )


@dataclass(frozen=True)
class SmallnessVerdict:
    applicable: bool
    margin: float

    def to_dict(self) -> dict:
        return {"applicable": self.applicable, "margin": self.margin}


def check_smallness(osc: float, report: ConstantsReport) -> SmallnessVerdict:
    """Is the measured oscillation below the ledger threshold eps?"""
    return SmallnessVerdict(applicable=bool(osc <= report.eps), margin=report.eps - osc)
