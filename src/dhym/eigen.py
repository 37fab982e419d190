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

import numpy as np

from .errors import DomainError, PhaseOutsideBranchError
from .reports import InequalityReport, evaluate

TWO_PI = 2.0 * math.pi

#: rows per block in the row pipelines of the suites and in sort_rows: a
#: block's temporaries stay in a 2 MiB L2 cache
ROW_BLOCK = 8192


def row_blocks(m: int) -> list[slice]:
    """Slices covering rows 0..m-1, ROW_BLOCK rows each (the last one shorter)."""
    return [slice(s, min(s + ROW_BLOCK, m)) for s in range(0, m, ROW_BLOCK)]


#: compare-exchange pairs of an optimal sorting network, by row width; the
#: first layer of each touches every column
SORT_NETWORKS = {4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def sort_rows(lam: np.ndarray) -> np.ndarray:
    """Sort each row of lam, shape (m, 4), in place; returns lam.

    Runs SORT_NETWORKS on ROW_BLOCK rows at a time, each compare-exchange
    an np.minimum and np.maximum of two columns, and writes each sorted
    column back into its place in lam, so a block's temporaries are its
    columns and no sorted copy of lam is made.  Either layout works; on a
    column-major (F-ordered) lam every column the network reads and writes
    is contiguous, which is how the suites and the sampler pass it.

    Precondition: no NaN, and the zeros of a row share one sign.  Then the
    result is bit-equal to np.sort(lam, axis=1); otherwise min and max may
    give both zeros of a -0.0/+0.0 pair one sign, which is value-equal only.
    The callers meet it: uniform draws give only +0.0, the sampler's rows
    only zeros of theta's sign (its draws are mirrored copies of rows whose
    zeros are all +0.0), and it refuses a NaN theta first.
    """
    net = SORT_NETWORKS[lam.shape[1]]
    for blk in row_blocks(lam.shape[0]):
        cols = list(lam[blk].T)
        for i, j in net:
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        # the first layer replaced every column, so none aliases lam
        for j, col in enumerate(cols):
            lam[blk, j] = col
    return lam


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

    def contains(self, theta: float) -> bool:
        lo, hi = self.value
        return lo < theta < hi


def sigma_rows(lam) -> np.ndarray:
    """Elementary symmetric polynomials row-wise: shape (m, n) -> (m, n+1).

    Uses the stable one-pass recurrence e_k += v * e_{k-1}; tests compare
    it against direct subset enumeration.  e is column-major (F-ordered),
    so each update runs on contiguous columns, and the rows derived from e
    by broadcasting (constant_model_rows, the margin table) keep that layout.
    """
    lam = np.asarray(lam, dtype=float)
    m, n = lam.shape
    e = np.zeros((m, n + 1), order="F")
    e[:, 0] = 1.0
    # huge eigenvalues overflow to inf silently, as Python float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            v = lam[:, j]
            for k in range(min(j + 1, n), 1, -1):
                e[:, k] += v * e[:, k - 1]
            e[:, 1] += v  # v * e[:, 0] is v * 1.0, which is v bit for bit
    return e


def sigma(lam, k: int) -> float:
    """k-th elementary symmetric polynomial of the tuple; sigma_0 = 1."""
    t = as_eigen(lam)
    if not 0 <= k <= t.n:
        raise DomainError(f"sigma index k={k} out of range 0..{t.n}")
    return float(sigma_rows([t.values])[0, k])


#: tan(3*pi/8) and 0.66, the bounds of _atan's three argument reductions
_T3P8 = 2.41421356237309504880
_ATAN_MID = 0.66
#: float(pi/4) and pi/4 - float(pi/4); reduction k adds k times each
_PIO4 = 0.25 * math.pi
_PIO4_LO = 3.061616997868382943065e-17


def _atan_core(r, y0, c):
    """y0 + atan(r) + c for |r| <= 0.66 by Cephes' rational
    atan(r) = r + r*z*P(z)/Q(z), z = r*r (Moshier 1989), rounded as
    y0 + ((r*(z*P/Q) + r) + c).

    r, y0 and c are floats or ndarrays of one shape.  Only +, -, * and /,
    each rounded once on every CPU; the augmented assignments work in place
    on an ndarray and rebind a float, with the same roundings, so _atan and
    _atan_rows agree bit for bit.
    """
    z = r * r
    p = z * -8.750608600031904122785e-1  # P(z), degree 4, by Horner
    p -= 1.615753718733365076637e1
    p *= z
    p -= 7.500855792314704667340e1
    p *= z
    p -= 1.228866684490136173410e2
    p *= z
    p -= 6.485021904942025371773e1
    q = z + 2.485846490142306297962e1  # Q(z), monic of degree 5, by Horner
    q *= z
    q += 1.650270098316988542046e2
    q *= z
    q += 4.328810604912902668951e2
    q *= z
    q += 4.853903996359136964868e2
    q *= z
    q += 1.945506571482613964425e2
    p *= z
    p /= q
    p *= r
    p += r
    p += c
    p += y0
    return p


def _atan(x: float) -> float:
    """arctan of one float, within 1 ulp, with the same bits on every CPU.

    Cephes' three reductions: |x| > tan(3*pi/8) takes r = -1/|x| (k = 2),
    0.66 < |x| takes r = (|x| - 1)/(|x| + 1) (k = 1), and any other |x|
    takes r = |x| (k = 0); reduction k adds y0 = k*_PIO4 and c = k*_PIO4_LO.
    -0.0 keeps its sign, +-inf gives +-pi/2 and NaN stays NaN, as with
    math.atan.
    """
    a = abs(x)
    if a > _T3P8:
        r, k = -1.0 / a, 2.0
    elif a > _ATAN_MID:
        r, k = (a - 1.0) / (a + 1.0), 1.0
    else:
        r, k = a, 0.0
    return math.copysign(_atan_core(r, k * _PIO4, k * _PIO4_LO), x)


def _atan_rows(x: np.ndarray) -> np.ndarray:
    """_atan of every element of x, bit for bit: masks pick each element's
    reduction, and _atan_core runs once over the whole array."""
    with np.errstate(all="ignore"):
        a = np.abs(x)
        big = a > _T3P8
        mid = a > _ATAN_MID
        r = np.where(mid, (a - 1.0) / (a + 1.0), a)
        np.divide(-1.0, a, out=r, where=big)
        k = np.add(mid, big, dtype=float)
        y = _atan_core(r, k * _PIO4, k * _PIO4_LO)
        return np.copysign(y, x, out=y)


def lagrangian_phase(lam) -> float:
    """Lagrangian phase theta = sum(arctan lambda_j), in (-n*pi/2, n*pi/2).

    Summed left to right over _atan, which phase_rows reproduces bit for bit.
    """
    theta = 0.0
    for v in as_eigen(lam).values:
        theta += _atan(v)
    return theta


def phase_rows(lam: np.ndarray) -> np.ndarray:
    """lagrangian_phase of each row of a (m, n) array, bit for bit.

    The arctangents come from _atan_rows, run once over the whole array:
    built from +, -, *, / and copysign, it gives the same bits on every
    CPU, where np.arctan's SIMD kernels and libm may differ in the last bit.
    """
    theta = np.zeros(lam.shape[0])
    for col in _atan_rows(lam).T:
        theta += col
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


def gamma_cone_rows(e: np.ndarray) -> np.ndarray:
    """gamma_cone of each row of sigma rows e, shape (m, n+1)."""
    k = np.zeros(e.shape[0], dtype=int)
    leading = np.ones(e.shape[0], dtype=bool)
    for s in e[:, 1:].T:
        leading &= s > 0.0
        k += leading
    return k


def gamma_cone(lam) -> int:
    """Largest k with sigma_1, ..., sigma_k all strictly positive.

    Returns 0 when sigma_1 <= 0; k = n is the pointwise Kaehler-cone
    condition.  One row of gamma_cone_rows.
    """
    return int(gamma_cone_rows(sigma_rows([as_eigen(lam).values]))[0])


def factorization_rows(lam: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two evaluations of the same quartic-eigenvalue polynomial, for each
    sorted row of lam (m, 4) with its sigma rows e.

    LHS = sigma_3 - sigma_1*(sigma_2 - lambda_2*lambda_4) and
    RHS = -(l2+l3+l4)(l1+l3)(l1+l2) - l3*l4*(l1+l3) - l4^2*(l1+l3)
    agree identically; evaluating both sides exercises the cancellation
    pattern behind the mid-branch estimate sigma_1*sigma_2 > sigma_1 + sigma_3.
    Each side is built in place, with l1 + l3 computed once; the roundings
    are those of the two expressions above, left to right.
    """
    l1, l2, l3, l4 = lam.T
    # huge eigenvalues overflow to inf silently, as Python float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = l2 * l4
        np.subtract(e[:, 2], lhs, out=lhs)
        lhs *= e[:, 1]
        np.subtract(e[:, 3], lhs, out=lhs)
        s13 = l1 + l3
        rhs = l2 + l3
        rhs += l4
        np.negative(rhs, out=rhs)
        rhs *= s13
        term = l1 + l2
        rhs *= term
        np.multiply(l3, l4, out=term)
        term *= s13
        rhs -= term
        np.multiply(l4, l4, out=term)
        term *= s13
        rhs -= term
    return lhs, rhs


def factorization_identity(lam) -> tuple[float, float]:
    """factorization_rows of one 4-tuple: (LHS, RHS)."""
    t = as_eigen(lam)
    if t.n != 4:
        raise DomainError(f"factorization identity needs 4 eigenvalues, got {t.n}")
    rows = np.array([t.values])
    lhs, rhs = factorization_rows(rows, sigma_rows(rows))
    return float(lhs[0]), float(rhs[0])


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
    rows = np.array([t.values])
    return evaluate(f"branch_{branch.name.lower()}", rows, sigma_rows(rows)).report()


#: the 4-fold branches, indexed by _branch_index, and their (lo, hi) rows
_FOUR_FOLD = (Branch.SUPERCRITICAL, Branch.MID, Branch.FULL)
_BOUNDS = np.array([b.value for b in _FOUR_FOLD])


def _branch_index(theta):
    """Index into _FOUR_FOLD of the finest branch of each phase in
    (pi, 2*pi): 0 above 3*pi/2, 1 below it, 2 exactly at it."""
    half = Branch.MID.value[1]
    return np.where(theta > half, 0, np.where(theta < half, 1, 2))


def branch_blocks(lam: np.ndarray, e: np.ndarray, thetas: np.ndarray, phase: np.ndarray):
    """Branch margins of 4-fold rows lam (sigma rows e), grouped by target branch.

    Row i, with thetas[i] in (pi, 2*pi), is checked on
    branch_for_phase(thetas[i]) against its actual phase ``phase[i]``; the
    PhaseOutsideBranchError names the first row outside its branch, as
    branch_check sample by sample would.  Returns (rows, margins) for each
    branch that occurs; a branch that owns every row gets lam and e themselves.
    """
    which = _branch_index(thetas)
    lo, hi = _BOUNDS.take(which, axis=0).T
    outside = ~((lo < phase) & (phase < hi))
    if outside.any():
        i = outside.argmax()
        raise PhaseOutsideBranchError(float(phase[i]), _FOUR_FOLD[which[i]])
    blocks = []
    for k, b in enumerate(_FOUR_FOLD):
        rows = np.flatnonzero(which == k)
        if rows.size:
            # take along the columns keeps each branch's rows F-ordered; lam[rows]
            # and lam.T[:, rows].T both return C-ordered copies
            cols = (lam, e) if rows.size == len(e) else [a.T.take(rows, axis=1).T for a in (lam, e)]
            blocks.append((rows, evaluate(f"branch_{b.name.lower()}", *cols)))
    return blocks


def branch_for_phase(theta: float, n: int = 4) -> Branch:
    """The finest branch containing the given phase (4-folds split FULL)."""
    if n == 3:
        if Branch.N3.contains(theta):
            return Branch.N3
        raise DomainError(f"phase {theta:.12g} outside the 3-fold window")
    if n != 4:
        raise DomainError(f"phase branches are defined for n = 3 or 4, got n={n}")
    if not Branch.FULL.contains(theta):
        raise DomainError(f"phase {theta:.12g} outside (pi, 2*pi)")
    return _FOUR_FOLD[_branch_index(theta)]
