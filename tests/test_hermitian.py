import math

import mpmath
import numpy as np
import pytest

from dhym import HermitianPair, lagrangian_phase, phase_of_pair, relative_spectrum
from dhym import hermitian
from dhym.errors import ConvergenceError, InvalidPairError
from dhym.hermitian import RESIDUAL_REL, _hermitized


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


@pytest.mark.parametrize(
    "g, a",
    [
        (1e-310 * np.eye(3), np.eye(3)),  # subnormal metric: NaN residuals
        (np.eye(3), np.full((3, 3), 1e308)),  # eigenvalue 3e308 overflows
        (1e-310 * np.eye(3), np.ones((3, 3))),  # eigh itself fails to converge
        (1e10 * np.eye(3), np.full((3, 3), 1e308)),  # ||A||_2 and the residual norm overflow
    ],
)
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
