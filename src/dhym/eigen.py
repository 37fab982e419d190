"""Pointwise eigenvalue machinery for dHYM-type models.

A point of a deformed Hermitian-Yang-Mills model is described by the real
eigenvalues lambda_1 <= ... <= lambda_n of a closed (1,1)-form measured
against the Kaehler metric.  Everything downstream -- the Lagrangian phase
sum(arctan lambda_j), the elementary symmetric polynomials sigma_k, the
branch inequalities and the cone conditions -- is a symmetric function of
that tuple.  Each identity is written once, as a row-wise array form
(sigma_rows, phase_rows, phase_component_rows, factorization_rows); the
scalar functions evaluate it on one row and the suites on all their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import DomainError, PhaseOutsideBranchError
from .reports import InequalityReport, Margins, evaluate

TWO_PI = 2.0 * math.pi

#: rows per block in the row pipelines of the identity suite and the
#: level-set sampler: a block's temporaries stay in a 2 MiB L2 cache
ROW_BLOCK = 8192


def row_blocks(m: int) -> list[slice]:
    """Slices covering rows 0..m-1, ROW_BLOCK rows each (the last one shorter)."""
    return [slice(s, s + ROW_BLOCK) for s in range(0, m, ROW_BLOCK)]


@dataclass(frozen=True)
class EigenTuple:
    """Sorted, finite, real eigenvalues of form-against-metric at a point."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted(float(v) for v in self.values))
        if not vals:
            raise DomainError("eigenvalue tuple must be non-empty")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"eigenvalues must be finite, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def to_dict(self):
        return {"lambda": list(self.values)}


def as_eigen(lam) -> EigenTuple:
    """Coerce a sequence of reals (or an EigenTuple) to a sorted EigenTuple."""
    if isinstance(lam, EigenTuple):
        return lam
    return EigenTuple(tuple(lam))


class Branch(Enum):
    """Open intervals of the lifted angle used by the branch theorems.

    SUPERCRITICAL and MID are the two halves of FULL = (pi, 2*pi) on a
    4-fold; N3 is the 3-fold hypothesis window (pi/2, 3*pi/2).
    """

    SUPERCRITICAL = (1.5 * math.pi, TWO_PI)
    MID = (math.pi, 1.5 * math.pi)
    FULL = (math.pi, TWO_PI)
    N3 = (0.5 * math.pi, 1.5 * math.pi)

    @property
    def endpoints(self) -> tuple[float, float]:
        return self.value

    def contains(self, theta: float) -> bool:
        lo, hi = self.value
        return lo < theta < hi


def sigma_rows(lam) -> np.ndarray:
    """Elementary symmetric polynomials row-wise: shape (m, n) -> (m, n+1).

    Uses the stable one-pass recurrence e_k += v * e_{k-1}; tests compare
    it against direct subset enumeration.
    """
    lam = np.asarray(lam, dtype=float)
    m, n = lam.shape
    e = np.zeros((m, n + 1))
    e[:, 0] = 1.0
    # huge eigenvalues overflow to inf silently, as Python float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            v = lam[:, j]
            for k in range(min(j + 1, n), 0, -1):
                e[:, k] += v * e[:, k - 1]
    return e


def elementary_all(values) -> list[float]:
    """All elementary symmetric polynomials [sigma_0, ..., sigma_n] of one tuple."""
    return sigma_rows([tuple(values)])[0].tolist()


def sigma(lam, k: int) -> float:
    """k-th elementary symmetric polynomial of the tuple; sigma_0 = 1."""
    t = as_eigen(lam)
    if not 0 <= k <= t.n:
        raise DomainError(f"sigma index k={k} out of range 0..{t.n}")
    return elementary_all(t.values)[k]


def lagrangian_phase(lam) -> float:
    """Lagrangian phase theta = sum(arctan lambda_j), in (-n*pi/2, n*pi/2).

    Summed left to right, which phase_rows reproduces bit for bit.
    """
    theta = 0.0
    for v in as_eigen(lam).values:
        theta += math.atan(v)
    return theta


def phase_rows(lam: np.ndarray) -> np.ndarray:
    """lagrangian_phase of each row of a (m, n) array, bit for bit.

    The arctangents come from math.atan: np.arctan differs from it in the
    last bit on about 0.1 % of doubles.
    """
    atan = np.fromiter(map(math.atan, lam.ravel().tolist()), float, lam.size)
    atan = atan.reshape(lam.shape)
    theta = np.zeros(lam.shape[0])
    for j in range(lam.shape[1]):
        theta += atan[:, j]
    return theta


def phase_component_rows(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary part of prod_j (1 + i*lambda_j) for each row of
    sigma rows e, shape (m, n+1).

    Equals (sum of (-1)^(k/2) sigma_k over even k,
            sum of (-1)^((k-1)/2) sigma_k over odd k);
    for n = 4 that is (1 - sigma_2 + sigma_4, sigma_1 - sigma_3).  Any
    coefficient rows c in place of e give sum_k i^k c_k the same way.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as Python floats
        re = sum(e[:, k] if k % 4 == 0 else -e[:, k] for k in range(0, e.shape[1], 2))
        im = sum(e[:, k] if k % 4 == 1 else -e[:, k] for k in range(1, e.shape[1], 2))
    return re, im


def phase_components(lam) -> tuple[float, float]:
    """phase_component_rows of one tuple.  The continuous argument of this
    complex number is the Lagrangian phase modulo 2*pi."""
    re, im = phase_component_rows(sigma_rows([as_eigen(lam).values]))
    return float(re[0]), float(im[0])


def gamma_cone(lam) -> int:
    """Largest k with sigma_1, ..., sigma_k all strictly positive.

    Returns 0 when sigma_1 <= 0; k = n is the pointwise Kaehler-cone
    condition.
    """
    e = elementary_all(as_eigen(lam).values)
    k = 0
    for s in e[1:]:
        if s > 0.0:
            k += 1
        else:
            break
    return k


def factorization_rows(lam: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two evaluations of the same quartic-eigenvalue polynomial, for each
    sorted row of lam (m, 4) with its sigma rows e.

    LHS = sigma_3 - sigma_1*(sigma_2 - lambda_2*lambda_4) and
    RHS = -(l2+l3+l4)(l1+l3)(l1+l2) - l3*l4*(l1+l3) - l4^2*(l1+l3)
    agree identically; evaluating both sides exercises the cancellation
    pattern behind the mid-branch estimate sigma_1*sigma_2 > sigma_1 + sigma_3.
    """
    l1, l2, l3, l4 = lam.T
    lhs = e[:, 3] - e[:, 1] * (e[:, 2] - l2 * l4)
    rhs = (
        -(l2 + l3 + l4) * (l1 + l3) * (l1 + l2)
        - l3 * l4 * (l1 + l3)
        - l4 * l4 * (l1 + l3)
    )
    return lhs, rhs


def factorization_identity(lam) -> tuple[float, float]:
    """factorization_rows of one 4-tuple: (LHS, RHS)."""
    t = as_eigen(lam)
    if t.n != 4:
        raise DomainError(f"factorization identity needs 4 eigenvalues, got {t.n}")
    rows = np.array([t.values])
    lhs, rhs = factorization_rows(rows, sigma_rows(rows))
    return float(lhs[0]), float(rhs[0])


def mixed_sigma(lam, mu, j: int, k: int) -> float:
    """Brute-force two-class symmetric sum over disjoint index subsets.

    Sum over disjoint I (|I| = j) and J (|J| = k) of
    prod_{i in I} lambda_i * prod_{i in J} mu_i.  With mu = lam this equals
    C(j+k, j) * sigma_{j+k}(lam).  Kept as plain enumeration: it is the
    oracle for diagonal-model intersection numbers.
    """
    lt, mt = as_eigen(lam), as_eigen(mu)
    if lt.n != mt.n:
        raise DomainError(f"dimension mismatch: {lt.n} vs {mt.n}")
    n = lt.n
    if j < 0 or k < 0 or j + k > n:
        raise DomainError(f"subset sizes j={j}, k={k} invalid for n={n}")
    total = 0.0
    for idx_i in combinations(range(n), j):
        rest = [i for i in range(n) if i not in idx_i]
        pi = math.prod(lt.values[i] for i in idx_i)
        for idx_j in combinations(rest, k):
            total += pi * math.prod(mt.values[i] for i in idx_j)
    return total


def branch_check(lam, branch: Branch) -> InequalityReport:
    """Check the pointwise inequalities asserted on a phase branch.

    Requires lagrangian_phase(lam) to lie in the open branch interval;
    raises PhaseOutsideBranchError naming the actual phase otherwise.
    Returns each asserted inequality with its signed margin, from the
    margin table row that branch_blocks evaluates for the suites:

    * SUPERCRITICAL: min lambda_i > 0, min pairwise product > 1 (which
      forces sigma_3 > sigma_1, also reported);
    * MID: sigma_1, sigma_2, sigma_3 > 0, sigma_3 - sigma_1 > 0,
      sigma_2 - sigma_4 - 1 > 0, sigma_2 > 2, lambda_2*lambda_4 > 1 and
      lambda_3*lambda_4 > 1;
    * FULL: the intersection of the facts that hold on both halves;
    * N3 (3-folds): sigma_1 > 0, sigma_2 > 0 and sigma_2 > 1.
    """
    t = as_eigen(lam)
    need = 3 if branch is Branch.N3 else 4
    if t.n != need:
        raise DomainError(f"branch {branch.name} expects {need} eigenvalues, got {t.n}")
    theta = lagrangian_phase(t)
    if not branch.contains(theta):
        raise PhaseOutsideBranchError(theta, branch)
    return _branch_margins(np.array([t.values]), branch).report()


def _branch_margins(lam: np.ndarray, branch: Branch) -> Margins:
    return evaluate(f"branch_{branch.name.lower()}", lam, sigma_rows(lam))


def branch_blocks(lam: np.ndarray, thetas: np.ndarray, phase: np.ndarray):
    """Branch margins of 4-fold rows, grouped by the branch of each target.

    Row i, with thetas[i] in (pi, 2*pi), is checked on
    branch_for_phase(thetas[i]) against its actual phase ``phase[i]``; the
    PhaseOutsideBranchError names the first row outside its branch, as
    branch_check sample by sample would.  Returns (rows, margins) for each
    branch that occurs.
    """
    half = Branch.MID.value[1]
    kinds = (Branch.SUPERCRITICAL, Branch.MID, Branch.FULL)
    which = np.where(thetas > half, 0, np.where(thetas < half, 1, 2))
    lo, hi = np.array([b.value for b in kinds])[which].T
    outside = ~((lo < phase) & (phase < hi))
    if outside.any():
        i = outside.argmax()
        raise PhaseOutsideBranchError(float(phase[i]), kinds[which[i]])
    groups = [(b, np.flatnonzero(which == k)) for k, b in enumerate(kinds)]
    return [(rows, _branch_margins(lam[rows], b)) for b, rows in groups if rows.size]


def branch_for_phase(theta: float, n: int = 4) -> Branch:
    """The finest branch containing the given phase (4-folds split FULL)."""
    if n == 3:
        if Branch.N3.contains(theta):
            return Branch.N3
        raise DomainError(f"phase {theta:.12g} outside the 3-fold window")
    if Branch.SUPERCRITICAL.contains(theta):
        return Branch.SUPERCRITICAL
    if Branch.MID.contains(theta):
        return Branch.MID
    if Branch.FULL.contains(theta):
        return Branch.FULL  # exactly 3*pi/2
    raise DomainError(f"phase {theta:.12g} outside (pi, 2*pi)")
