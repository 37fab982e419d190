"""Relative spectra of Hermitian pairs (metric G, form A).

The eigenvalues of G^{-1}A that feed the pointwise machinery come from
numpy's LAPACK: Cholesky-factor the metric, G = L L*, diagonalise the
Hermitian matrix B = L^{-1} A L^{-*} with `eigh`, and map the eigenvectors
back through L^{-*}.  A pair keeps the factor L of its positivity gate and
solves once, on first use (`HermitianPair.eigensystem`), checked against
the residual gate RESIDUAL_REL; `relative_spectrum` and `phase_of_pair` read
that solve.  Pairs are read from JSON by `serialize.parse_pair`.

The Hermiticity gate scans each matrix once: its largest |entry| is both
the finiteness test and the scale.  Only outside (2^-200, 2^200) does it
rescale by a power of two before taking norms, which keeps them finite
near 1e308 and their ratio's bits near 1e-308; inside, the rescale changes
no bit.  A range of 2^+-500 would: at max |entry| near 1e-150 a deviation
near HERMITICITY_REL squares to a subnormal and prints differently.  The
norms of both gates are the arithmetic np.linalg.norm runs, without its
dispatch, so every decision, message and result keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .eigen import EigenTuple, lagrangian_phase
from .errors import ConvergenceError, InvalidPairError

#: relative Hermiticity deviation tolerated before rejecting the input
HERMITICITY_REL = 1e-12

#: guaranteed residual ||A v - lambda G v|| <= RESIDUAL_REL * ||A||
RESIDUAL_REL = 1e-9


def _frobenius(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a C-contiguous complex x, without its dispatch."""
    x = x.ravel()
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _hermitized(m: np.ndarray, name: str) -> np.ndarray:
    """Symmetrise round-trip noise below HERMITICITY_REL; reject more."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidPairError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    parts = np.ascontiguousarray(m).view(float)
    top = np.abs(parts).max(initial=0.0)  # one scan: NaN or inf makes it non-finite
    if not math.isfinite(top):
        raise InvalidPairError(f"{name} has a non-finite entry (NaN or inf)")
    s = parts.view(complex)
    if not 2.0**-200 < top < 2.0**200:
        # a power-of-two scale keeps the norms finite and their ratio's bits;
        # inside 2^+-200 it changes no bit, but not inside 2^+-500 (module doc)
        s = np.ldexp(parts, -math.frexp(top)[1]).view(complex)
    dev = _frobenius(s - s.conj().T)
    scale = _frobenius(s)
    if dev > HERMITICITY_REL * scale:
        raise InvalidPairError(f"{name} is not Hermitian: relative deviation {dev / scale:.3e}")
    half = (0.5 * parts).view(complex)  # exact, no overflow; unlike 0.5 * m, keeps -0.0
    return half + half.conj().T


def cholesky_lower(g: np.ndarray) -> np.ndarray:
    """Complex Cholesky factor L with G = L L*; reports the failing pivot."""
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        pass
    # on failure only: pivot j is det G[:j+1, :j+1] / det G[:j, :j]; report the first
    # one that is not positive, or the last one if rounding in the minors hides it
    prev = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # minors near 1e308 overflow
        for j in range(g.shape[0]):
            det = np.linalg.det(g[: j + 1, : j + 1]).real
            pivot = det / prev
            if not pivot > 0.0:
                break
            prev = det
    raise InvalidPairError(
        f"metric is not positive definite: Cholesky pivot {j} is {pivot:.6e}"
    )


@dataclass(frozen=True, eq=False)
class HermitianPair:
    """A positive-definite metric matrix G and a Hermitian form matrix A.

    G, A and the Cholesky factor L (G = L L*) are private read-only copies,
    so a pair compares by identity and its eigensystem is solved once.
    """

    G: np.ndarray
    A: np.ndarray
    L: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = _hermitized(self.G, "G")
        a = _hermitized(self.A, "A")
        if g.shape != a.shape:
            raise InvalidPairError(f"shape mismatch: G {g.shape} vs A {a.shape}")
        low = cholesky_lower(g)  # positivity gate
        for name, m in (("G", g), ("A", a), ("L", low)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @cached_property
    def eigensystem(self):
        """Eigenvalues (ascending EigenTuple), G-orthonormal read-only
        eigenvectors and the worst residual relative to ||A||.

        Solves A u = lambda G u via B = L^{-1} A L^{-*} and maps eigenvectors
        back through u = L^{-*} v; the residual ||A u - lambda G u|| is
        guaranteed below RESIDUAL_REL * ||A||, else ConvergenceError (which
        is not cached: every call raises it again).
        """
        # overflow (a subnormal G, entries near 1e308) fails the gate below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                inv = np.linalg.inv(self.L)
                w, v = np.linalg.eigh(inv @ self.A @ inv.conj().T)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"eigensolve failed: {exc}") from exc
            u = inv.conj().T @ v
            # ||A||_2 and the column norms as np.linalg.norm computes them; amax
            # propagates a NaN singular value, so the gate below rejects it
            norm_a = max(float(np.linalg.svd(self.A, compute_uv=False).max()), 1e-300)
            r = self.A @ u - (self.G @ u) * w
            residuals = np.sqrt(np.add.reduce((r.conj() * r).real, axis=0))
            worst = float(np.max(residuals, initial=0.0))
        rel = worst / norm_a
        if not rel <= RESIDUAL_REL:  # NaN fails too, and inf / inf is NaN
            raise ConvergenceError(
                f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_REL:.1e} * ||A||"
            )
        u.setflags(write=False)
        return EigenTuple(tuple(w)), u, rel


def relative_spectrum(pair: HermitianPair) -> EigenTuple:
    """Real eigenvalues of G^{-1}A, sorted ascending."""
    return pair.eigensystem[0]


def phase_of_pair(pair: HermitianPair) -> float:
    """Lagrangian phase of the relative spectrum.

    Invariant under simultaneous congruence (G, A) -> (P* G P, P* A P).
    """
    return lagrangian_phase(relative_spectrum(pair))
