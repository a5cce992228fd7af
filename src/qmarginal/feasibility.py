"""Closed-form existence predicates: rank ranges and spectra compatibility.

The spectra predicates answer whether a bipartite state with joint
spectrum mu and first-marginal spectrum lambda can exist, before any
construction is attempted. ``necessary_spectra_compat`` is necessary for
all (m, n); it is also sufficient when m >= n. ``compat_2x2`` and
``compat_2x3`` are the exact (necessary and sufficient) criteria for the
(2, 2) and (2, 3) systems. No simple sufficient criterion is known for
general m < n, so only the proven special cases are exposed. Each returns
a CompatReport of named checks, passing when their slack is >= -MAJ_TOL.
Both spectra must be probability vectors (entries >= -MAJ_TOL, sum
within MAJ_TOL of 1); anything else raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError
from .majorization import MAJ_TOL, majorization_slack


class RankRange(NamedTuple):
    k_min: int
    k_max: int


@dataclass(frozen=True)
class CompatCheck:
    name: str
    slack: float

    @property
    def passed(self) -> bool:
        return self.slack >= -MAJ_TOL


@dataclass(frozen=True)
class CompatReport:
    checks: tuple[CompatCheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.holds

    def check(self, name: str) -> CompatCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _positive(name, value):
    if value < 1:
        raise DimensionError(f"{name} must be >= 1, got {value}")


def element_rank_range(r: int, m: int) -> RankRange:
    """Attainable ranks of states on an (m, n) system whose marginal has rank r."""
    _positive("r", r)
    _positive("m", m)
    return RankRange(-(-r // m), r * m)


def extreme_rank_range(r: int, m: int) -> RankRange:
    """Attainable ranks of the extreme points among those states."""
    _positive("r", r)
    _positive("m", m)
    return RankRange(-(-r // m), r)


def exact_low_rank_exists(r: int, m: int, k: int) -> bool:
    """Is there a rank-<=k state whose first marginal has rank r? Iff m*k >= r."""
    _positive("r", r)
    _positive("m", m)
    _positive("k", k)
    return m * k >= r


def _sorted_desc(v, name, length=None):
    """Descending copy of a probability vector: entries >= -MAJ_TOL, sum within MAJ_TOL of 1."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if length is not None and v.size != length:
        raise DimensionError(f"{name} must have length {length}, got {v.size}")
    desc = np.sort(v)[::-1]
    vals = desc.tolist()  # spectra are short: Python floats beat two numpy reductions
    total = sum(vals)
    low = vals[-1] if vals else 0.0
    if not (low >= -MAJ_TOL and abs(total - 1.0) <= MAJ_TOL):  # also rejects NaN
        raise DomainError(
            f"{name} must be a probability vector, got sum {total!r} and min entry {low!r}"
        )
    return desc


def necessary_spectra_compat(lam, mu, m: int) -> CompatReport:
    """Three majorization conditions every (marginal, joint) spectra pair satisfies.

    * spread_marginal_vs_joint: each lambda entry repeated m times and
      divided by m is majorized by mu.
    * marginal_vs_mu_block_sums: lambda is majorized by the length-n vector
      of consecutive m-block sums of mu.
    * joint_vs_lambda_block_sums: mu is majorized by the m-block sums of
      lambda zero-padded to length m**2 * n.

    Necessary only for m < n: a pair can pass all three yet be infeasible.
    """
    _positive("m", m)
    lam = _sorted_desc(lam, "lambda")
    n = lam.size
    mu = _sorted_desc(mu, "mu", length=m * n)
    spread = np.repeat(lam, m) / m
    mu_blocks = mu.reshape(n, m).sum(axis=1)
    lam_padded = np.pad(lam, (0, m * m * n - n))
    lam_blocks = lam_padded.reshape(m * n, m).sum(axis=1)
    return CompatReport((
        CompatCheck("spread_marginal_vs_joint", majorization_slack(spread, mu)),
        CompatCheck("marginal_vs_mu_block_sums", majorization_slack(lam, mu_blocks)),
        CompatCheck("joint_vs_lambda_block_sums", majorization_slack(mu, lam_blocks)),
    ))


def compat_2x2(lam, mu) -> CompatReport:
    """Exact feasibility for (m, n) = (2, 2): mu1 + mu2 >= lambda1."""
    lam = _sorted_desc(lam, "lambda", length=2)
    mu = _sorted_desc(mu, "mu", length=4)
    return CompatReport((CompatCheck("mu1+mu2 >= lambda1", mu[0] + mu[1] - lam[0]),))


def compat_2x3(lam, mu) -> CompatReport:
    """Exact feasibility for (m, n) = (2, 3): four eigenvalue inequalities."""
    lam = _sorted_desc(lam, "lambda", length=3)
    mu = _sorted_desc(mu, "mu", length=6)
    return CompatReport((
        CompatCheck("mu4+mu5 <= lambda1", lam[0] - (mu[3] + mu[4])),
        CompatCheck("lambda1 <= mu1+mu2", (mu[0] + mu[1]) - lam[0]),
        CompatCheck("mu5+mu6 <= lambda3", lam[2] - (mu[4] + mu[5])),
        CompatCheck("lambda3 <= mu2+mu3", (mu[1] + mu[2]) - lam[2]),
    ))
