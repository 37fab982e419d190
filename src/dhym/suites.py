"""Batch verification suites: identities, branch theorems and KT chains.

Every suite is one array pass over its random tuples, through the same
row forms that the scalar API evaluates on a single row, so the code paths
a user calls are the ones being certified: phase_component_rows,
factorization_rows and constant_model_rows behind phase_components,
factorization_identity and constant_model, and the margin table
(reports.MARGINS) behind branch_check, check_chern_n4 and kt_chain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .charge import _im_root
from .eigen import (
    ROW_BLOCK,
    TWO_PI,
    branch_blocks,
    factorization_rows,
    phase_component_rows,
    phase_rows,
    row_blocks,
    sigma_rows,
)
from .errors import DomainError
from .models import constant_model_rows
from .reports import evaluate, tally
from .sampling import sample_level_set_batch

#: pass thresholds, relative to max(1, |lhs|, |rhs|)
PRODUCT_IDENTITY_TOL = 1e-12
FACTORIZATION_TOL = 1e-10
VIETA_TOL = 1e-10
NEWTON_TOL = 1e-12

#: the identity and KT suites draw their tuples uniformly from [-SPAN, SPAN]^4
SPAN = 10.0


class _SuiteReport:
    """Wire form shared by the suite reports: every field but the trailing
    (elapsed, passed), then "pass"; wall time never reaches stdout."""

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)[:-2]}
        if "failures" in out:
            out["min_margins"] = dict(self.min_margins)
            out["failures"] = [list(f) for f in self.failures]
        return {**out, "pass": self.passed}


@dataclass(frozen=True)
class IdentitySuiteReport(_SuiteReport):
    count: int
    max_rel_product: float
    max_rel_factorization: float
    max_rel_vieta: float
    min_newton_margin_rel: float
    elapsed: float
    passed: bool


#: Vieta's expansion is checked on the first VIETA_ROWS rows (one row block)
VIETA_ROWS = 1000
assert VIETA_ROWS <= ROW_BLOCK


def _max_rel(a, b) -> float:
    """max |a - b| / max(1, |a|, |b|) over the rows."""
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _newton_mins(p) -> list[float]:
    """min over the rows of the relative Newton margin of normalised means p,
    for k = 1, 2, 3."""
    out = []
    for k in (1, 2, 3):
        square, outer = p[:, k] ** 2, p[:, k - 1] * p[:, k + 1]
        scale = np.maximum(1.0, np.maximum(square, np.abs(outer)))
        out.append(float(np.min((square - outer) / scale)))
    return out


def identity_suite(count: int, seed: int) -> IdentitySuiteReport:
    """Random-tuple identity checks on [-SPAN, SPAN]^4.

    Verifies (i) the alternating-sigma components against the complex
    product prod(1 + i*lambda_j), (ii) the quartic factorization identity,
    (iii) Vieta's expansion prod(x + lambda_j) = sum sigma_k x^(4-k) on a
    VIETA_ROWS-row slice, and (iv) Newton log-concavity of the normalised
    means p_k = sigma_k / C(4,k), which holds for every real tuple.

    Every draw comes first; the rows are then checked ROW_BLOCK at a time
    and each block's extremes folded into the report.  Max and min are
    exact, so the report equals a single pass over all rows.
    """
    if count < 1:
        raise DomainError(f"suite count must be >= 1, got {count}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-SPAN, SPAN, size=(count, 4))
    x = rng.uniform(-SPAN, SPAN, size=min(count, VIETA_ROWS))

    product, fact, newton = [], [], []
    for blk in row_blocks(count):
        lam = np.sort(draws[blk], axis=1)
        e = sigma_rows(lam)
        re, im = phase_component_rows(e)
        product.append(_max_rel(re + 1j * im, np.prod(1.0 + 1j * lam, axis=1)))
        fact.append(_max_rel(*factorization_rows(lam, e)))
        newton.append(_newton_mins(constant_model_rows(e)))
        if blk.start == 0:
            m = x.size
            vl = np.prod(x[:, None] + lam[:m], axis=1)
            # x ** 3 and x ** 4 would take numpy's SIMD pow, whose last bit
            # depends on the CPU; np.float_power is libm pow everywhere, and
            # numpy squares x ** 2 itself
            powers = (np.float_power(x, 4.0), np.float_power(x, 3.0), x**2, x, 1.0)
            rel_vieta = _max_rel(vl, sum(e[:m, k] * powers[k] for k in range(5)))
    rel_product = float(np.max(product))
    rel_fact = float(np.max(fact))
    # each k's minimum over all blocks, then the least of k = 1, 2, 3
    newton = min(np.inf, *np.min(newton, axis=0).tolist())

    passed = (
        rel_product <= PRODUCT_IDENTITY_TOL
        and rel_fact <= FACTORIZATION_TOL
        and rel_vieta <= VIETA_TOL
        and newton >= -NEWTON_TOL
    )
    return IdentitySuiteReport(
        count=count,
        max_rel_product=rel_product,
        max_rel_factorization=rel_fact,
        max_rel_vieta=rel_vieta,
        min_newton_margin_rel=newton,
        elapsed=time.perf_counter() - start,
        passed=passed,
    )


@dataclass(frozen=True)
class TheoremSuiteReport(_SuiteReport):
    count: int
    theta_lo: float
    theta_hi: float
    max_phase_error: float
    min_margins: dict
    tstar_count: int
    sign_mismatches: int
    failures: tuple
    elapsed: float
    passed: bool


def theorem_suite(
    count: int,
    seed: int,
    theta_lo: float = math.pi + 0.01,
    theta_hi: float = TWO_PI - 0.01,
) -> TheoremSuiteReport:
    """Level-set Monte Carlo over the lifted window (pi, 2*pi).

    Draws `count` tuples with phases uniform in [theta_lo, theta_hi],
    then evaluates, in one array pass, the branch_check facts of the half
    of the window each phase falls in and the check_chern_n4 inequalities
    of the matching constant models.  Also certifies
    the real-axis crossing: sign(Re Z(T*)) must reproduce the sign of the
    second inequality margin whenever T* = sqrt(d_3/d_1) > 1 exists.
    """
    if count < 1:
        raise DomainError(f"suite count must be >= 1, got {count}")
    if not math.pi < theta_lo <= theta_hi < TWO_PI:
        raise DomainError(
            f"theorem suite needs pi < theta_lo <= theta_hi < 2*pi, got "
            f"[{theta_lo:.12g}, {theta_hi:.12g}]"
        )
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(theta_lo, theta_hi, size=count)
    lam = sample_level_set_batch(thetas, rng=rng)

    phase = phase_rows(lam)
    max_phase_err = max(0.0, float(np.max(np.abs(phase - thetas))))
    blocks = branch_blocks(lam, thetas, phase)
    d = constant_model_rows(sigma_rows(lam))
    chern = evaluate("chern_n4", d)
    blocks.append((np.arange(count), chern))

    # T*: sign(Re Z(T*)) must match the sign of the second Chern margin
    t = _im_root(4, d)
    rows = np.flatnonzero(t > 1.0)
    t, dr = t[rows], d[rows]
    # 24 Re Z(t) = -(d_0 t^4 - 6 d_2 t^2 + d_4), summed in z_of_t's order
    quartic = dr[:, 0] * np.float_power(t, 4.0) - 6.0 * dr[:, 2] * np.float_power(t, 2.0)
    re = -(quartic + dr[:, 4])
    second = chern.margin[rows, chern.names.index("second")]
    mismatch = rows[np.copysign(1.0, re) != np.copysign(1.0, second)]
    tstar_count, mismatches = len(rows), len(mismatch)
    min_margins, failures = tally(blocks, flags=[("tstar_sign", mismatch)])

    passed = not failures and mismatches == 0 and max_phase_err < 1e-12
    return TheoremSuiteReport(
        count=count,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        max_phase_error=max_phase_err,
        min_margins=min_margins,
        tstar_count=tstar_count,
        sign_mismatches=mismatches,
        failures=failures,
        elapsed=time.perf_counter() - start,
        passed=passed,
    )


@dataclass(frozen=True)
class KtSuiteReport(_SuiteReport):
    count: int
    attempts: int
    min_margins: dict
    failures: tuple
    elapsed: float
    passed: bool


def kt_suite(count: int, seed: int) -> KtSuiteReport:
    """KT chain on random constant models with Gamma-cone order >= 3.

    Tuples are drawn uniformly from [-SPAN, SPAN]^4 and kept when
    sigma_1, sigma_2, sigma_3 > 0; every kt_chain entry must pass on the
    resulting constant models.
    """
    if count < 1:
        raise DomainError(f"suite count must be >= 1, got {count}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sigmas = []
    attempts = 0
    while sum(len(e) for e in sigmas) < count:
        block = max(4096, count)
        lam = np.sort(rng.uniform(-SPAN, SPAN, size=(block, 4)), axis=1)
        e = sigma_rows(lam)
        sigmas.append(e[(e[:, 1] > 0.0) & (e[:, 2] > 0.0) & (e[:, 3] > 0.0)])
        attempts += block
    d = constant_model_rows(np.concatenate(sigmas)[:count])

    min_margins, failures = tally([(np.arange(count), evaluate("kt_chain", d))], qualified=False)
    return KtSuiteReport(
        count=count,
        attempts=attempts,
        min_margins=min_margins,
        failures=failures,
        elapsed=time.perf_counter() - start,
        passed=not failures,
    )
