"""Batch verification suites: identities, branch theorems and KT chains.

Every suite checks its random tuples ROW_BLOCK rows at a time and folds
each block into its report: extremes, and a reports.Tally of the margins,
both exact, so a report equals one pass over all rows.  The identity suite
draws each block as it folds it; the theorem and KT suites draw first.
Rows are sorted in place by eigen.sort_rows, a block at a time in the
identity and KT suites and by the sampler in the theorem suite.  Every row
block is column-major (F-ordered) from the sort to the fold: the identity
suite turns each drawn block into F-order once before sorting it, the KT
suite only the rows its prefilter keeps, the sampler returns F-ordered
rows, sigma_rows builds F-ordered sigma rows, the rows of a branch that
shares its block and the KT suite's kept rows are gathered column by
column, and the margin table is F-ordered, so the sort, the sigma
recurrence and the checks run on contiguous columns.  The KT suite drops
the drawn rows with fewer than three entries > 0, which no Gamma_3 row
has, masks sigma_1..sigma_3 > 0 at once on the rest, and stops at its
count-th row.
The checks are the row forms that the scalar API evaluates on a single
row, so the code paths a user calls are the ones being certified:
phase_component_rows, factorization_rows and constant_model_rows behind
phase_components, factorization_identity and constant_model, and the margin
table (reports.MARGINS) behind branch_check, check_chern_n4 and kt_chain.
"""

from __future__ import annotations

import numpy as np

from .charge import _re_z_at_tstar_rows
from .eigen import (
    ROW_BLOCK,
    Branch,
    branch_blocks,
    factorization_rows,
    phase_component_rows,
    phase_rows,
    row_blocks,
    sigma_rows,
    sort_rows,
)
from .errors import DomainError
from .models import constant_model_rows
from .reports import Tally, evaluate
from .sampling import PHASE_TOL, sample_level_set_batch

#: pass thresholds, relative to max(1, |lhs|, |rhs|)
PRODUCT_IDENTITY_TOL = 1e-12
FACTORIZATION_TOL = 1e-10
VIETA_TOL = 1e-10
NEWTON_TOL = 1e-12

#: the identity and KT suites draw their tuples uniformly from [-SPAN, SPAN]^4
SPAN = 10.0


def _span(u):
    """-SPAN + 2*SPAN*u in place, Generator.uniform's arithmetic on random u."""
    u *= 2.0 * SPAN
    u -= SPAN
    return u


#: Vieta's expansion is checked on the first VIETA_ROWS rows
VIETA_ROWS = 1000


def _max_rel(a, b) -> float:
    """max |a - b| / max(1, |a|, |b|) over the rows."""
    scale = np.abs(a)
    np.maximum(scale, np.abs(b), out=scale)
    np.maximum(scale, 1.0, out=scale)
    diff = np.abs(a - b)
    diff /= scale
    return float(diff.max())


def _newton_mins(p) -> list[float]:
    """min over the rows of the relative Newton margin of normalised means p,
    for k = 1, 2, 3."""
    out = []
    for k in (1, 2, 3):
        square, outer = p[:, k] * p[:, k], p[:, k - 1] * p[:, k + 1]
        scale = np.abs(outer)
        np.maximum(square, scale, out=scale)
        np.maximum(scale, 1.0, out=scale)
        square -= outer
        square /= scale
        out.append(float(square.min()))
    return out


def _product_rows(lam) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary part of prod_j (1 + i*lambda_j) for each row, by
    the recurrence (re, im) <- (re - im*x, re*x + im) from (1, lambda_1):
    the arithmetic of np.prod(1 + 1j*lam, axis=1), in reals.  Bit for bit
    on rows without -0.0, which 1j*lam turns into +0.0; a -0.0 can change
    only the sign of a zero, never a magnitude."""
    re, im = 1.0, lam[:, 0]
    for x in lam.T[1:]:
        re, im = re - im * x, re * x + im
    return re, im


def _complex(re, im) -> np.ndarray:
    """re + i*im, without re + 1j*im's complex temporaries."""
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im
    return z


def identity_suite(count: int, seed: int) -> dict:
    """Random-tuple identity checks on [-SPAN, SPAN]^4, as the dict that
    `dhym identity` prints: count, max_rel_product, max_rel_factorization,
    max_rel_vieta, min_newton_margin_rel, pass.

    Verifies (i) the alternating-sigma components against the complex
    product prod(1 + i*lambda_j), multiplied out factor by factor
    (_product_rows), (ii) the quartic factorization identity,
    (iii) Vieta's expansion prod(x + lambda_j) = sum sigma_k x^(4-k) on a
    VIETA_ROWS-row slice, and (iv) Newton log-concavity of the normalised
    means p_k = sigma_k / C(4,k), which holds for every real tuple.
    """
    if count < 1:
        raise DomainError(f"suite count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    product, fact, newton = [], [], []
    for blk in row_blocks(count):
        # random fills sequentially, so block draws are the rows of one draw
        lam = _span(np.asfortranarray(rng.random((blk.stop - blk.start, 4))))
        e = sigma_rows(sort_rows(lam))
        if blk.start == 0:  # ROW_BLOCK >= VIETA_ROWS: the Vieta rows
            head = lam[:VIETA_ROWS], e[:VIETA_ROWS]
        sums = _complex(*phase_component_rows(e))
        product.append(_max_rel(sums, _complex(*_product_rows(lam))))
        fact.append(_max_rel(*factorization_rows(lam, e)))
        newton.append(_newton_mins(constant_model_rows(e)))
    rel_product = float(np.max(product))
    rel_fact = float(np.max(fact))
    # each k's minimum over all blocks, then the least of k = 1, 2, 3
    newton = min(np.inf, *np.min(newton, axis=0).tolist())

    x = _span(rng.random(min(count, VIETA_ROWS)))
    lam, e = head
    x2 = x * x
    powers = (x2 * x2, x2 * x, x2, x, 1.0)
    vieta = sum(e[:, k] * powers[k] for k in range(5))
    rel_vieta = _max_rel(np.prod(x[:, None] + lam, axis=1), vieta)

    return {
        "count": count,
        "max_rel_product": rel_product,
        "max_rel_factorization": rel_fact,
        "max_rel_vieta": rel_vieta,
        "min_newton_margin_rel": newton,
        "pass": (
            rel_product <= PRODUCT_IDENTITY_TOL
            and rel_fact <= FACTORIZATION_TOL
            and rel_vieta <= VIETA_TOL
            and newton >= -NEWTON_TOL
        ),
    }


def theorem_suite(
    count: int,
    seed: int,
    theta_lo: float = Branch.FULL.value[0] + 0.01,
    theta_hi: float = Branch.FULL.value[1] - 0.01,
) -> dict:
    """Level-set Monte Carlo over the lifted window (pi, 2*pi), as the dict
    that `dhym sample` prints: count, theta_lo, theta_hi, max_phase_error,
    min_margins, tstar_count, sign_mismatches, failures, pass.

    Draws `count` tuples with phases uniform in [theta_lo, theta_hi]
    (theta_lo >= pi + PHASE_TOL, so that no row's phase reaches pi), then
    evaluates the branch_check facts of the half of the window each target
    falls in (FULL where a phase lands across 3*pi/2 from a target within
    PHASE_TOL of it) and the check_chern_n4 inequalities of the matching
    constant models.  Also certifies the real-axis crossing: sign(Re Z(T*))
    must reproduce the sign of the second inequality margin whenever
    T* = sqrt(d_3/d_1) > 1 exists.
    """
    if count < 1:
        raise DomainError(f"suite count must be >= 1, got {count}")
    lo, hi = Branch.FULL.value
    if not lo < theta_lo <= theta_hi < hi:
        raise DomainError(
            f"theorem suite needs pi < theta_lo <= theta_hi < 2*pi, got "
            f"[{theta_lo:.12g}, {theta_hi:.12g}]"
        )
    if theta_lo < lo + PHASE_TOL:
        # a row's phase misses its target by up to PHASE_TOL, so a target
        # nearer pi could put a phase on pi or below, outside every branch
        raise DomainError(
            f"theorem suite needs theta_lo >= pi + PHASE_TOL = {lo + PHASE_TOL!r}, "
            f"got {theta_lo!r}"
        )
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(theta_lo, theta_hi, size=count)
    lam = sample_level_set_batch(thetas, seed=rng)
    half = Branch.MID.value[1]

    fold = Tally()
    max_phase_err, tstar_count, mismatches = 0.0, 0, 0
    for blk in row_blocks(count):
        phase = phase_rows(lam[blk])
        max_phase_err = max(max_phase_err, float(np.max(np.abs(phase - thetas[blk]))))
        samples = np.arange(blk.start, blk.stop)
        e = sigma_rows(lam[blk])
        target = thetas[blk]
        near = np.abs(target - half) < PHASE_TOL
        if near.any():
            target = np.where(near & ((phase - half) * (target - half) <= 0.0), half, target)
        blocks = [(samples[r], mg) for r, mg in branch_blocks(lam[blk], e, target, phase)]
        d = constant_model_rows(e)
        chern = evaluate("chern_n4", d)
        # T*: sign(Re Z(T*)) must match the sign of the second Chern margin
        rows, re = _re_z_at_tstar_rows(d)
        second = chern.margin[rows, chern.names.index("second")]
        mismatch = samples[rows[np.copysign(1.0, re) != np.copysign(1.0, second)]]
        tstar_count, mismatches = tstar_count + len(rows), mismatches + len(mismatch)
        fold.add([*blocks, (samples, chern)], flags=[("tstar_sign", mismatch)])

    return {
        "count": count,
        "theta_lo": theta_lo,
        "theta_hi": theta_hi,
        "max_phase_error": max_phase_err,
        "min_margins": fold.mins,
        "tstar_count": tstar_count,
        "sign_mismatches": mismatches,
        "failures": fold.failures,
        "pass": not fold.failures and mismatches == 0 and max_phase_err < PHASE_TOL,
    }


def _gamma3(e) -> np.ndarray:  # gamma_cone_rows(e) >= 3, without its counts
    return np.logical_and.reduce(e[:, 1:4] > 0.0, axis=1)


def _three_positive(u) -> np.ndarray:
    """Mask of the rows of raw draws u, shape (m, 4) and C-ordered, whose
    rows lam = _span(u) have at least three entries > 0: u > 0.5 exactly
    where lam > 0.  Each row's four bool bytes of u > 0.5 are read as one
    uint32; times 0x01010101, its top byte is their sum (no lower byte
    exceeds 3, so none carries), in either byte order.

    Every Gamma_3 row is one of them, since in Gamma_k every n - k + 1
    entries have a positive sum (Caffarelli-Nirenberg-Spruck 1985): here
    any two, so at most one entry is <= 0.  The sign test is exact, and
    it stays sound for the rounded sigma rows: take entries a, b, -c, -d
    with c, d >= 0 (b may be <= 0 too) and s = a + b.  Then sigma_1 >= 0
    gives s >= c + d, and sigma_3 = cd*s - ab(c + d) >= 0 gives
    ab <= cd*s/(c + d) <= s(c + d)/4 (c = d = 0 makes sigma_3 = 0), so
    with cd <= s(c + d)/4, sigma_2 = ab - s(c + d) + cd <= -s(c + d)/2:
    a margin as large as the terms of sigma_2, far above their rounding.
    A row the mask drops therefore never meets _gamma3 in floats either.
    """
    return (u > 0.5).view(np.uint32).ravel() * np.uint32(0x01010101) >= np.uint32(3 << 24)


def kt_suite(count: int, seed: int) -> dict:
    """KT chain on random constant models with Gamma-cone order >= 3, as
    the dict that `dhym kt` prints: count, attempts, min_margins, failures,
    pass.

    Tuples are drawn uniformly from [-SPAN, SPAN]^4 and kept when
    sigma_1, sigma_2, sigma_3 > 0; every kt_chain entry must pass on the
    first `count` kept constant models.  The draw stops at the chunk that
    holds the count-th kept row, in chunks sized from the acceptance so
    far (the first from the cube's Gamma_3 share).  Each chunk drops its
    rows with fewer than three entries > 0 (raw draws u > 0.5, exactly)
    before the scaling, the sort and the sigma rows.  `attempts` is the
    1-based draw index of the count-th kept row, so count / attempts is
    the Gamma_3 acceptance.
    """
    if count < 1:
        raise DomainError(f"suite count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    kept, n_kept, drawn = [], 0, 0
    while n_kept < count:
        # the rows still needed at the acceptance so far, plus 1/8 and 64,
        # within ROW_BLOCK; random fills sequentially, so the chunks are
        # the rows of one draw
        if n_kept:
            want = (count - n_kept) * drawn // n_kept * 9 // 8 + 64
        else:  # at the Gamma_3 share of the cube, about 1 in 11
            want = count * 11 * 9 // 8 + 64
        u = rng.random((min(want, ROW_BLOCK), 4))
        rows = np.flatnonzero(_three_positive(u))
        e = sigma_rows(sort_rows(_span(np.asfortranarray(u.take(rows, axis=0)))))
        hit = np.flatnonzero(_gamma3(e))
        # kept as columns: e.T[:, hit] and e[hit] would copy row-major
        kept.append(e.T.take(hit, axis=1))
        if n_kept + hit.size >= count:  # the draw index of the count-th kept row, plus 1
            used = drawn + int(rows[hit[count - n_kept - 1]]) + 1
        n_kept += hit.size
        drawn += u.shape[0]
    e = np.concatenate(kept, axis=1)[:, :count].T
    fold = Tally(qualified=False)
    for blk in row_blocks(count):
        d = constant_model_rows(e[blk])
        fold.add([(np.arange(blk.start, blk.stop), evaluate("kt_chain", d))])
    return {
        "count": count,
        "attempts": used,
        "min_margins": fold.mins,
        "failures": fold.failures,
        "pass": not fold.failures,
    }
