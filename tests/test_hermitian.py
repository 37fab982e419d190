import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhym import HermitianPair, lagrangian_phase, phase_of_pair, relative_spectrum
from dhym import hermitian
from dhym.errors import ConvergenceError, InvalidPairError
from dhym.hermitian import HERMITICITY_REL, RESIDUAL_REL, _hermitized


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_pair(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = m @ m.conj().T + dim * np.eye(dim)
    return HermitianPair(g, random_hermitian(rng, dim))


def charpoly_roots(a):
    """Independent oracle: characteristic polynomial via the trace
    (Faddeev-LeVerrier) recursion, then numpy root finding."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.array(a, dtype=complex)
    for k in range(1, n + 1):
        if k > 1:
            m = a @ (m + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(m) / k)
    return np.sort(np.roots(coeffs).real)


def test_identity_metric_diagonal_form():
    pair = HermitianPair(np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0]))
    assert relative_spectrum(pair).values == (1.0, 2.0, 3.0, 4.0)


def test_scaled_metric():
    pair = HermitianPair(2.0 * np.eye(4), np.eye(4))
    assert relative_spectrum(pair).values == pytest.approx((0.5, 0.5, 0.5, 0.5))


def test_two_by_two_example():
    pair = HermitianPair(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
    spec = relative_spectrum(pair)
    assert spec.values[0] == pytest.approx(1 / 3, abs=1e-12)
    assert spec.values[1] == pytest.approx(1.0, abs=1e-12)


def test_phase_examples():
    assert phase_of_pair(HermitianPair(np.eye(4), np.eye(4))) == pytest.approx(math.pi)
    assert phase_of_pair(HermitianPair(np.eye(4), np.zeros((4, 4)))) == 0.0


def test_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InvalidPairError, match="A"):
        HermitianPair(np.eye(2), bad)
    with pytest.raises(InvalidPairError, match="G"):
        HermitianPair(bad, np.eye(2))


def test_rejects_indefinite_metric():
    g = np.diag([1.0, -1.0])
    with pytest.raises(InvalidPairError, match="pivot 1"):
        HermitianPair(g, np.eye(2))
    with pytest.raises(InvalidPairError, match=r"pivot 2 is -3\.000000e\+00"):
        HermitianPair(np.diag([1.0, 2.0, -3.0]), np.eye(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_indefinite_metric_near_overflow_warns_nothing():
    # the leading minor det G[:2, :2] = -1e616 overflows a double
    with pytest.raises(InvalidPairError, match="pivot 1 is -inf"):
        HermitianPair(np.array([[1.0, 1e308], [1e308, 0.0]]), np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["G", "A"])
def test_rejects_non_finite_entries(name, bad):
    mats = {"G": np.eye(3, dtype=complex), "A": np.eye(3, dtype=complex)}
    mats[name][1, 2] = bad
    with pytest.raises(InvalidPairError, match=f"{name} has a non-finite entry"):
        HermitianPair(mats["G"], mats["A"])


def test_rejects_shape_problems():
    with pytest.raises(InvalidPairError, match="square"):
        HermitianPair(np.ones((2, 3)), np.eye(2))
    with pytest.raises(InvalidPairError, match="mismatch"):
        HermitianPair(np.eye(3), np.eye(2))


def test_rejects_empty_pair():
    # a 0x0 pair has no spectrum: it is refused when built, not at first use
    with pytest.raises(InvalidPairError, match=r"G must be a non-empty .* shape \(0, 0\)"):
        HermitianPair(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(InvalidPairError, match=r"A must be a non-empty .* shape \(0, 0\)"):
        HermitianPair(np.eye(2), np.zeros((0, 0)))


def test_tolerates_roundtrip_noise():
    g = np.eye(3) + 1e-15 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    pair = HermitianPair(g, np.eye(3))
    assert np.allclose(pair.G, pair.G.conj().T)


def test_residuals_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        pair = random_pair(rng, dim)
        w, u, _ = pair.eigensystem
        norm_a = np.linalg.norm(pair.A, 2)
        for i in range(dim):
            res = np.linalg.norm(pair.A @ u[:, i] - w.values[i] * (pair.G @ u[:, i]))
            assert res <= 1e-9 * max(norm_a, 1e-300)


def test_spectrum_matches_charpoly_oracle():
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4):
        for _ in range(10):
            a = random_hermitian(rng, dim)
            pair = HermitianPair(np.eye(dim), a)
            got = np.array(relative_spectrum(pair).values)
            want = charpoly_roots(a)
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_congruence_invariance_of_phase():
    rng = np.random.default_rng(3)
    base = HermitianPair(np.eye(4), np.diag([2.0, 3.0, 4.0, 5.0]))
    theta = phase_of_pair(base)
    assert theta == pytest.approx(lagrangian_phase((2, 3, 4, 5)), abs=1e-12)
    for _ in range(25):
        p = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if np.linalg.cond(p) > 1e3:
            continue
        pair = HermitianPair(p.conj().T @ base.G @ p, p.conj().T @ base.A @ p)
        assert phase_of_pair(pair) == pytest.approx(theta, abs=1e-8)


def test_eigensystem_dim16():
    rng = np.random.default_rng(4)
    for _ in range(5):
        pair = random_pair(rng, 16)
        w, u, rel_residual = pair.eigensystem
        assert np.all(np.diff(w.values) >= 0.0)
        # G-orthonormal eigenvectors
        assert np.allclose(u.conj().T @ pair.G @ u, np.eye(16), atol=1e-12)
        assert 0.0 <= rel_residual <= RESIDUAL_REL


def mp_relative_spectrum(g, a):
    """Independent oracle at 50 digits: mpmath Cholesky, inverse and eighe."""
    ctx = mpmath.MPContext()
    ctx.dps = 50
    inv = ctx.inverse(ctx.cholesky(ctx.matrix(g.tolist())))
    b = inv * ctx.matrix(a.tolist()) * inv.transpose_conj()
    return np.array(sorted(float(x) for x in ctx.eighe(b, eigvals_only=True)))


def test_spectrum_matches_mpmath_oracle():
    rng = np.random.default_rng(6)
    for cond in (1.0, 1e3, 1e6):
        for k in range(8):
            dim = 3 + k % 2
            s = np.concatenate(([1.0, cond], cond ** rng.uniform(0.0, 1.0, size=dim - 2)))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            pair = HermitianPair((q * s) @ q.conj().T, random_hermitian(rng, dim))
            want = mp_relative_spectrum(pair.G, pair.A)
            got = np.array(relative_spectrum(pair).values)
            tol = 1e-13 * cond * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol


def test_rejects_non_hermitian_near_overflow():
    # m - m^H and the norms overflow unscaled, which let this through as inf+nanj
    bad = np.array([[1e308, 1e308], [-1e308, 1.0]])
    with pytest.raises(InvalidPairError, match="A is not Hermitian"):
        HermitianPair(np.eye(2), bad)
    with pytest.raises(InvalidPairError, match="G is not Hermitian"):
        HermitianPair(bad, np.eye(2))


def test_huge_metric_keeps_its_spectrum():
    eye = np.eye(3)
    assert np.array_equal(HermitianPair(1e308 * eye, eye).G, 1e308 * eye)
    for g, a in ((1e308, 1e300), (1e307, 1e299)):
        spectrum = relative_spectrum(HermitianPair(g * eye, a * eye))
        assert spectrum.values == pytest.approx((1e-8,) * 3, rel=1e-15)


def test_hermitized_bits_match_plain_symmetrisation():
    rng = np.random.default_rng(8)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        m = random_hermitian(rng, dim) * 10.0 ** rng.uniform(-150, 150)
        m = m + 1e-14 * np.max(np.abs(m)) * np.triu(rng.normal(size=(dim, dim)), 1)
        got = _hermitized(m, "A")
        want = 0.5 * (m + m.conj().T)
        assert got.tobytes() == want.tobytes()


NON_FINITE_SOLVES = [
    (1e-310 * np.eye(3), np.eye(3)),  # subnormal metric: NaN residuals
    (np.eye(3), np.full((3, 3), 1e308)),  # eigenvalue 3e308 overflows
    (1e-310 * np.eye(3), np.ones((3, 3))),  # eigh itself fails to converge
    (1e10 * np.eye(3), np.full((3, 3), 1e308)),  # ||A||_2 and the residual norm overflow
]


@pytest.mark.parametrize("g, a", NON_FINITE_SOLVES)
def test_non_finite_solve_raises_convergence_error(g, a):
    pair = HermitianPair(g, a)
    for _ in range(2):  # a failed solve is not cached
        with pytest.raises(ConvergenceError):
            relative_spectrum(pair)
    with pytest.raises(ConvergenceError):
        phase_of_pair(pair)


def test_pairs_compare_by_identity():
    pair = HermitianPair(np.eye(2), np.eye(2))
    twin = HermitianPair(np.eye(2), np.eye(2))
    assert pair == pair
    assert pair != twin
    assert len({pair, twin, pair}) == 2


def test_one_solve_per_pair(monkeypatch):
    calls = {"cholesky": 0, "eigh": 0}
    for name in calls:
        real = getattr(hermitian.np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(hermitian.np.linalg, name, counted)
    rng = np.random.default_rng(9)
    for cond in (1.0, 1e3, 1e6):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        s = np.array([1.0, cond, cond**0.3, cond**0.7])
        calls.update(cholesky=0, eigh=0)
        pair = HermitianPair((q * s) @ q.conj().T, random_hermitian(rng, 4))
        spectrum = relative_spectrum(pair)
        phase = phase_of_pair(pair)
        w, u, _ = pair.eigensystem
        assert calls == {"cholesky": 1, "eigh": 1}
        assert pair.eigensystem is pair.eigensystem
        assert not u.flags.writeable and not pair.L.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
        inv = np.linalg.inv(np.linalg.cholesky(pair.G))
        want, v = np.linalg.eigh(inv @ pair.A @ inv.conj().T)
        assert np.asarray(spectrum.values).tobytes() == want.tobytes()
        assert w is spectrum
        assert u.tobytes() == (inv.conj().T @ v).tobytes()
        assert phase == lagrangian_phase(tuple(want))


def reference_hermitized(m, name):
    """The Hermiticity gate with its power-of-two rescale on every matrix and
    np.linalg.norm for both norms: what `_hermitized` reproduces bit for bit."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidPairError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidPairError(f"{name} has a non-finite entry (NaN or inf)")
    parts = np.ascontiguousarray(m).view(float)
    s = np.ldexp(parts, -math.frexp(np.abs(parts).max(initial=0.0))[1]).view(complex)
    dev = np.linalg.norm(s - s.conj().T)
    scale = np.linalg.norm(s)
    if dev > HERMITICITY_REL * scale:
        raise InvalidPairError(f"{name} is not Hermitian: relative deviation {dev / scale:.3e}")
    half = (0.5 * parts).view(complex)
    return half + half.conj().T


def reference_eigensystem(pair):
    """`HermitianPair.eigensystem` with np.linalg.norm for ||A||_2 and the
    residual column norms, as (eigenvalues, eigenvectors, rel)."""
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(pair.L)
        try:
            w, v = np.linalg.eigh(inv @ pair.A @ inv.conj().T)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolve failed: {exc}") from exc
        u = inv.conj().T @ v
        norm_a = max(float(np.linalg.norm(pair.A, 2)), 1e-300)
        residuals = np.linalg.norm(pair.A @ u - (pair.G @ u) * w, axis=0)
        worst = float(np.max(residuals, initial=0.0))
    rel = worst / norm_a
    if not rel <= RESIDUAL_REL:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_REL:.1e} * ||A||"
        )
    return w, u, rel


def gate_outcome(gate, m):
    """("ok", bytes, shape) of the symmetrised matrix, or the error message."""
    try:
        out = gate(m, "A")
    except InvalidPairError as exc:
        return "InvalidPairError", str(exc)
    return "ok", out.tobytes(), out.shape


#: the 2^+-200 edges of the unscaled range, and the whole double range
_exponents = st.one_of(
    st.sampled_from([-201, -200, -199, 199, 200, 201]), st.integers(-1074, 1023)
)

#: how far below the top scale an entry sits: not at all, a little, or anywhere
_shifts = st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 2100))


@st.composite
def near_hermitian(draw):
    """A Hermitian matrix with entries up to 2^top in magnitude (top in
    -1074..1023) at mixed scales, +-0.0 included; then perhaps one deviation
    near HERMITICITY_REL or one non-finite entry; in C, F or strided layout."""
    dim = draw(st.integers(1, 5))
    top = draw(_exponents)
    unit = st.floats(-1.0, 1.0)  # includes +-0.0 and +-1.0
    m = np.empty((dim, dim), complex)
    for i in range(dim):
        for j in range(i, dim):
            re = math.ldexp(draw(unit), top - draw(_shifts))
            if j > i:
                im = math.ldexp(draw(unit), top - draw(_shifts))
            else:
                im = draw(st.sampled_from([0.0, -0.0]))
            m[i, j] = complex(re, im)
            m[j, i] = m[i, j].conjugate()
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    rel = draw(st.one_of(st.just(0.0), st.floats(-14.0, -10.0).map(lambda x: 10.0**x)))
    if rel:
        m[i, j] += rel * math.ldexp(1.0, top) * draw(st.sampled_from([1.0, 1j, -1 + 1j]))
    bad = draw(st.sampled_from([None] * 5 + [math.nan, math.inf, -math.inf]))
    if bad is not None:
        m.real[i, j] = bad
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout == "strided":
        wide = np.zeros((dim, 2 * dim), complex)
        wide[:, ::2] = m
        m = wide[:, ::2]
    return m


@settings(max_examples=500, deadline=None)
@given(near_hermitian())
# max |entry| about 1e-150 and a relative deviation about 1.4e-11: the
# deviation squares to a subnormal, so leaving this matrix unscaled (as a
# range of 2^+-500 would) prints 1.415e-11 where the rescaled gate prints 1.414e-11
@example(np.array([[1e-150, 1.00000000002e-150], [1e-150, 1e-150]]))
def test_hermitized_bits_match_always_rescaled_reference(m):
    assert gate_outcome(_hermitized, m) == gate_outcome(reference_hermitized, m)


def times_power_of_two(m, e):
    """m * 2**e, exact unless an entry leaves the normal range."""
    return np.ldexp(np.ascontiguousarray(m).view(float), e).view(complex)


def test_eigensystem_bits_match_norm_reference():
    rng = np.random.default_rng(10)
    pairs = list(NON_FINITE_SOLVES)
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        cond = 10.0 ** rng.uniform(0.0, 8.0)
        s = np.concatenate(([1.0, cond], cond ** rng.uniform(0.0, 1.0, size=dim - 2)))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        g, a = (q * s) @ q.conj().T, random_hermitian(rng, dim)
        eg, ea = (int(e) for e in rng.integers(-300, 301, size=2))
        pairs.append((times_power_of_two(g, eg), times_power_of_two(a, ea)))
    for g, a in pairs:
        pair = HermitianPair(g, a)
        try:
            w, u, rel = reference_eigensystem(pair)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                pair.eigensystem
            assert str(got.value) == str(exc)
            continue
        spectrum, vectors, residual = pair.eigensystem
        assert np.asarray(spectrum.values).tobytes() == w.tobytes()
        assert vectors.tobytes() == u.tobytes()
        assert residual == rel


def test_nan_singular_value_fails_the_residual_gate(monkeypatch):
    # ||A||_2 is the largest singular value with NaN propagated, as amax does;
    # the first one (inf here) would make the relative residual 0 and pass
    pair = HermitianPair(np.eye(2), np.eye(2))
    monkeypatch.setattr(
        hermitian.np.linalg, "svd", lambda a, compute_uv: np.array([math.inf, math.nan])
    )
    with pytest.raises(ConvergenceError, match="residual"):
        pair.eigensystem
