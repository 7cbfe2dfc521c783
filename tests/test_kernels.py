import numpy as np
import pytest

from orc import kernels
from orc.bodies import Ball, BoxBody, Ellipsoid, HPolytope, Simplex


def _specs(n):
    gen = np.random.default_rng(11)
    A = gen.normal(size=(n + 2, n))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = gen.uniform(0.7, 1.3, size=n + 2)
    specs = [Ball(np.zeros(n), 1.0), BoxBody(np.zeros(n), 0.8),
             Simplex(n, 1.0),
             Ellipsoid(np.zeros(n), np.diag(gen.uniform(0.5, 2.0, size=n)))]
    # only keep the polytope when the simplex-like normals bound it
    try:
        specs.append(HPolytope(A, b, interior_point=np.zeros(n)))
    except Exception:
        pass
    return specs


def test_inside_matches_python_reference():
    gen = np.random.default_rng(0)
    for n in (2, 3, 6):
        for spec in _specs(n):
            code, M, v, s = spec.kernel_args()
            P = gen.normal(size=(300, n)) * 1.2
            expected = [kernels.inside_py(code, p, M, v, s) for p in P]
            assert [kernels.inside(code, p, M, v, s) for p in P] == expected
            assert kernels.inside_rows(code, P, M, v, s).tolist() == expected


def test_bisect_matches_python_reference_bitwise():
    gen = np.random.default_rng(1)
    for n in (2, 5):
        for spec in _specs(n):
            code, M, v, s = spec.kernel_args()
            for _ in range(100):
                d = gen.normal(size=n) * 0.05
                x = gen.normal(size=n)
                x /= np.linalg.norm(x)
                a = kernels.bisect_alpha(code, d, x, M, v, s, 4.0, 40)
                b = kernels.bisect_py(code, d, x, M, v, s, 4.0, 40)
                assert a == b


def test_bisect_ball_closed_form():
    # ray from origin along x exits Ball(0,1) at alpha = 1/||x||
    ball = Ball(np.zeros(3), 1.0)
    code, M, v, s = ball.kernel_args()
    x = np.array([0.5, 0.0, 0.0])
    alpha = kernels.bisect_py(code, np.zeros(3), x, M, v, s, 8.0, 50)
    assert abs(alpha - 2.0) < 1e-9


def _rays(spec, gen, k):
    """k seeded rays from near the center, each with its own bracket and
    round count; every bracket's upper end is outside the body."""
    n = spec.dim
    D = spec.geometry.center + 0.05 * spec.geometry.r * gen.normal(size=(k, n))
    x = gen.normal(size=n)
    x /= np.linalg.norm(x)
    hi = 4.0 * spec.geometry.R * gen.uniform(1.0, 2.0, size=k)
    iters = gen.integers(1, 48, size=k)
    return D, x, hi, iters


def _per_ray(spec, D, x, hi, iters):
    code, M, v, s = spec.kernel_args()
    return np.array([kernels.bisect_py(code, d, x, M, v, s, h, int(t))
                     for d, h, t in zip(D, hi, iters)])


def test_lockstep_matches_per_ray_bitwise_on_box_and_simplex():
    gen = np.random.default_rng(5)
    for n in (2, 5, 16):
        for spec in (BoxBody(np.zeros(n), 0.8), Simplex(n, 1.0)):
            code, M, v, s = spec.kernel_args()
            D, x, hi, iters = _rays(spec, gen, 2 * n)
            lockstep = kernels.bisect_rows(code, D, x, M, v, s, hi, iters)
            np.testing.assert_array_equal(lockstep, _per_ray(spec, D, x, hi, iters))


def test_lockstep_within_final_bracket_on_ball_ellipsoid_polytope():
    gen = np.random.default_rng(6)
    for n in (2, 5, 16):
        for spec in _specs(n):
            if isinstance(spec, (BoxBody, Simplex)):
                continue
            code, M, v, s = spec.kernel_args()
            D, x, hi, iters = _rays(spec, gen, 2 * n)
            lockstep = kernels.bisect_rows(code, D, x, M, v, s, hi, iters)
            width = hi / 2.0 ** iters
            assert np.all(np.abs(lockstep - _per_ray(spec, D, x, hi, iters)) <= width)


def test_lockstep_rows_stop_after_their_own_rounds():
    # one ray, repeated with 1..30 rounds: row t must be the t-round answer
    ball = Ball(np.zeros(3), 1.0)
    code, M, v, s = ball.kernel_args()
    iters = np.arange(1, 31)
    D = np.zeros((iters.size, 3))
    x = np.array([0.5, 0.0, 0.0])
    lockstep = kernels.bisect_rows(code, D, x, M, v, s, np.full(iters.size, 8.0), iters)
    for t, alpha in zip(iters, lockstep):
        assert alpha == kernels.bisect_py(code, np.zeros(3), x, M, v, s, 8.0, int(t))
    assert abs(lockstep[-1] - 2.0) <= 8.0 / 2.0 ** 30


def test_ellipsoid_cut_volume_ratio():
    n = 4
    center = np.zeros(n)
    P = np.eye(n)
    g = np.array([1.0, 0.0, 0.0, 0.0])
    c2, P2 = kernels.ellipsoid_cut_py(center, P, g)
    ratio = 0.5 * (np.linalg.slogdet(P2)[1] - np.linalg.slogdet(P)[1])
    assert abs(ratio + 1.0 / (2.0 * (n + 1))) < 1e-12
    assert c2[0] < 0.0  # moved away from the cut normal
    np.testing.assert_allclose(P2, P2.T)


def test_ellipsoid_cut_one_dimensional():
    c2, P2 = kernels.ellipsoid_cut_py(np.array([0.0]), np.eye(1),
                                      np.array([1.0]))
    ratio = 0.5 * np.linalg.slogdet(P2)[1]
    assert abs(ratio + 0.25) < 1e-12


def test_numba_flag_reflects_environment(monkeypatch):
    # the module-level flag is baked at import; just sanity-check its type
    assert isinstance(kernels.NUMBA_ENABLED, bool)


@pytest.mark.skipif(not kernels.NUMBA_ENABLED,
                    reason="compiled path unavailable")
def test_compiled_and_python_inside_agree_on_edge_points():
    ball = Ball(np.zeros(2), 1.0)
    code, M, v, s = ball.kernel_args()
    for p in ([1.0, 0.0], [1.0 + 1e-15, 0.0], [0.0, -1.0]):
        p = np.asarray(p)
        assert (kernels.inside(code, p, M, v, s)
                == kernels.inside_py(code, p, M, v, s))
