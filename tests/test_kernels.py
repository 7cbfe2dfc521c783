import math

import numpy as np

from orc import kernels
from orc.bodies import Ball, BoxBody, Ellipsoid, HPolytope, Intersection, Simplex


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


def _reference_contains(spec, p):
    """Closed containment of one point, from each body's definition."""
    if isinstance(spec, Ball):
        q = p - spec.center
        return bool(q @ q <= spec.radius * spec.radius)
    if isinstance(spec, BoxBody):
        return bool(np.max(np.abs(p - spec.center)) <= spec.radius)
    if isinstance(spec, Simplex):
        return bool(np.min(p) >= 0.0 and np.sum(p) <= spec.scale)
    if isinstance(spec, HPolytope):
        return bool(np.all(spec.A @ p <= spec.b))
    if isinstance(spec, Ellipsoid):
        q = p - spec.center
        return bool(q @ np.linalg.solve(spec.shape, q) <= 1.0)
    if isinstance(spec, Intersection):
        return all(_reference_contains(part, p) for part in spec.parts)
    raise TypeError(type(spec).__name__)


def _scalar_bisect(spec, d, x, hi, iters, lo=0.0):
    """Reference single-ray bisection from [lo, hi]: a plain loop over
    `_reference_contains`, independent of `bisect_rows`."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _reference_contains(spec, d + mid * x):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_inside_matches_python_reference():
    # contains_rows and contains of every body, an Intersection included
    gen = np.random.default_rng(0)
    for n in (2, 3, 6):
        specs = _specs(n)
        specs.append(Intersection(specs[:2] + specs[3:], np.zeros(n), 0.5))
        for spec in specs:
            # points at up to 1.5 R from the center, so both answers occur
            U = gen.normal(size=(300, n))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            t = gen.uniform(0.0, 1.5 * spec.geometry.R, size=(300, 1))
            P = spec.geometry.center + t * U
            expected = [_reference_contains(spec, p) for p in P]
            rows = spec.contains_rows(P)
            assert rows.dtype == bool and rows.shape == (300,)
            assert rows.tolist() == expected
            assert [spec.contains(p) for p in P] == expected
            assert 0 < sum(expected) < len(expected)


def test_bisect_matches_python_reference_bitwise():
    gen = np.random.default_rng(1)
    for n in (2, 5):
        for spec in (BoxBody(np.zeros(n), 0.8), Simplex(n, 1.0)):
            for _ in range(100):
                d = gen.normal(size=n) * 0.05
                x = gen.normal(size=n)
                x /= np.linalg.norm(x)
                assert (kernels.bisect_alpha(spec.contains_rows, d, x, 4.0, 40)
                        == _scalar_bisect(spec, d, x, 4.0, 40))


def test_bisect_ball_closed_form():
    # ray from origin along x exits Ball(0,1) at alpha = 1/||x||
    ball = Ball(np.zeros(3), 1.0)
    x = np.array([0.5, 0.0, 0.0])
    alpha = kernels.bisect_alpha(ball.contains_rows, np.zeros(3), x, 8.0, 50)
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
    return np.array([_scalar_bisect(spec, d, x, h, int(t))
                     for d, h, t in zip(D, hi, iters)])


def test_lockstep_matches_per_ray_bitwise_on_box_and_simplex():
    gen = np.random.default_rng(5)
    for n in (2, 5, 16):
        for spec in (BoxBody(np.zeros(n), 0.8), Simplex(n, 1.0)):
            D, x, hi, iters = _rays(spec, gen, 2 * n)
            lockstep = kernels.bisect_rows(spec.contains_rows, D, x, hi, iters)
            np.testing.assert_array_equal(lockstep, _per_ray(spec, D, x, hi, iters))


def test_lockstep_from_per_row_lower_ends_matches_per_ray_bitwise():
    # each row bisects its own bracket [lo_i, hi_i], lo_i inside
    gen = np.random.default_rng(7)
    for n in (2, 5, 16):
        for spec in (BoxBody(np.zeros(n), 0.8), Simplex(n, 1.0)):
            D, x, hi, iters = _rays(spec, gen, 2 * n)
            alpha = kernels.bisect_rows(spec.contains_rows, D, x, hi, np.full(len(D), 48))
            lo = gen.uniform(0.0, 0.9, len(D)) * alpha
            lockstep = kernels.bisect_rows(spec.contains_rows, D, x, hi, iters, lo)
            np.testing.assert_array_equal(
                lockstep, [_scalar_bisect(spec, d, x, h, int(t), a)
                           for d, h, t, a in zip(D, hi, iters, lo)])
            assert (lockstep >= lo).all()


def test_lockstep_within_final_bracket_on_ball_ellipsoid_polytope():
    gen = np.random.default_rng(6)
    for n in (2, 5, 16):
        for spec in _specs(n):
            if isinstance(spec, (BoxBody, Simplex)):
                continue
            D, x, hi, iters = _rays(spec, gen, 2 * n)
            lockstep = kernels.bisect_rows(spec.contains_rows, D, x, hi, iters)
            width = hi / 2.0 ** iters
            assert np.all(np.abs(lockstep - _per_ray(spec, D, x, hi, iters)) <= width)


def test_lockstep_rows_stop_after_their_own_rounds():
    # one ray, repeated with 1..30 rounds: row t must be the t-round answer
    ball = Ball(np.zeros(3), 1.0)
    iters = np.arange(1, 31)
    D = np.zeros((iters.size, 3))
    x = np.array([0.5, 0.0, 0.0])
    lockstep = kernels.bisect_rows(ball.contains_rows, D, x, np.full(iters.size, 8.0), iters)
    for t, alpha in zip(iters, lockstep):
        assert alpha == _scalar_bisect(ball, np.zeros(3), x, 8.0, int(t))
    assert abs(lockstep[-1] - 2.0) <= 8.0 / 2.0 ** 30


def test_lockstep_tests_only_the_rows_still_bisecting():
    # a row that is done costs no further test: sum(iters) in total,
    # not k * max(iters), and each row sees its own rounds only
    ball = Ball(np.zeros(2), 1.0)
    iters = np.array([3, 9, 1, 9, 5, 0, 2])
    D = np.zeros((iters.size, 2))
    x = np.array([0.25, 0.5])
    tested = []

    def counting(P):
        tested.append(P.shape[0])
        return ball.contains_rows(P)

    hi = np.linspace(4.0, 7.0, iters.size)
    alpha = kernels.bisect_rows(counting, D, x, hi, iters)
    assert sum(tested) == iters.sum()
    assert tested == [int(np.sum(iters >= step)) for step in range(1, iters.max() + 1)]
    np.testing.assert_array_equal(
        alpha, [_scalar_bisect(ball, d, x, h, int(t)) for d, h, t in zip(D, hi, iters)])


def _reference_cut(center, P, g):
    """The classical central cut of {y : (y-c)^T P^-1 (y-c) <= 1} by
    {<g, y-c> <= 0}, in shape-matrix form, dilated to the calibrated
    volume ratio target = exp(-1/(2(n+1))):

        b  = P g / sqrt(g^T P g)
        c' = c - b / (n+1)
        P' = (n^2/(n^2-1)) * scale * (P - 2/(n+1) * b b^T)
        scale = (target / ratio_min)^(2/n),
        ratio_min = (n/(n+1)) * (n^2/(n^2-1))^((n-1)/2)

    For n = 1 the formula for P' is 0 * inf; the cut keeps the half
    interval around c - b/2 and widens it to the calibrated ratio, so
    P' = target^2 * P.
    """
    n = center.size
    target = np.exp(-1.0 / (2.0 * (n + 1)))
    b = P @ g / np.sqrt(g @ P @ g)
    new_center = center - b / (n + 1.0)
    if n == 1:
        return new_center, target ** 2 * P
    ratio_min = (n / (n + 1.0)) * (n * n / (n * n - 1.0)) ** ((n - 1) / 2.0)
    scale = (target / ratio_min) ** (2.0 / n)
    return new_center, (n * n / (n * n - 1.0)) * scale * (P - 2.0 / (n + 1.0) * np.outer(b, b))


def _log_det_J(M, scale):
    """log |det(scale * M)|, the log-volume up to a dimension constant."""
    return M.shape[0] * math.log(scale) + np.linalg.slogdet(M)[1]


def test_ellipsoid_cut_volume_ratio():
    n = 4
    center = np.zeros(n)
    M = np.eye(n)
    g = np.array([1.0, 0.0, 0.0, 0.0])
    c2, scale2 = kernels.ellipsoid_cut_py(center, M, 1.0, g)
    # the volume is proportional to |det J|, J = scale * M
    ratio = _log_det_J(M, scale2) - _log_det_J(np.eye(n), 1.0)
    assert abs(ratio + 1.0 / (2.0 * (n + 1))) < 1e-12
    assert c2[0] < 0.0  # moved away from the cut normal
    J2 = scale2 * M
    P2 = J2 @ J2.T
    np.testing.assert_allclose(P2, P2.T)


def test_ellipsoid_cut_one_dimensional():
    M = np.eye(1)
    c2, scale2 = kernels.ellipsoid_cut_py(np.array([0.0]), M, 1.0,
                                          np.array([1.0]))
    ratio = _log_det_J(M, scale2)
    assert abs(ratio + 0.25) < 1e-12
    assert c2[0] == -0.5


def _assert_rel_close(actual, reference, rtol=1e-12):
    assert np.linalg.norm(actual - reference) <= rtol * np.linalg.norm(reference)


def test_ellipsoid_cut_matches_shape_matrix_reference():
    gen = np.random.default_rng(12)
    for n in (1, 2, 4, 16):
        for _ in range(20):
            center = gen.normal(size=n)
            J = gen.normal(size=(n, n))
            scale = gen.uniform(0.5, 4.0)
            g = gen.normal(size=n)
            g /= np.linalg.norm(g)
            ref_center, ref_P = _reference_cut(center, J @ J.T, g)
            # the cut reads only g's direction: a unit g and a scaled one
            for length in (1.0, 3.7):
                M = J / scale
                c2, scale2 = kernels.ellipsoid_cut_py(center, M, scale, length * g)
                J2 = scale2 * M
                _assert_rel_close(c2, ref_center)
                _assert_rel_close(J2 @ J2.T, ref_P)
                ratio = _log_det_J(M, scale2) - np.linalg.slogdet(J)[1]
                assert abs(ratio + 1.0 / (2.0 * (n + 1))) < 1e-12
                assert g @ (c2 - center) < 0.0  # moved away from the cut normal


def _reference_factor_cut(center, M, scale, g):
    """The central cut on J = scale * M, restated: constants computed per
    call, the rank-one term by np.outer, and 2^32 folded from scale into
    M once scale passes it.  Returns new arrays; M is not touched."""
    n = center.size
    target = math.exp(-1.0 / (2.0 * (n + 1)))
    beta = 1.0 - math.sqrt((n - 1.0) / (n + 1.0))
    ratio_min = (n / (n + 1.0)) * (n * n / (n * n - 1.0)) ** ((n - 1) / 2.0)
    sigma = math.sqrt(n * n / (n * n - 1.0) * (target / ratio_min) ** (2.0 / n))
    a = g.dot(M)
    aa = a.dot(a)
    Ma = M.dot(a)
    new_M = M - np.outer(Ma, a * (beta / aa))
    new_center = center - Ma * (scale / ((n + 1.0) * math.sqrt(aa)))
    new_scale = scale * sigma
    if new_scale > 2.0 ** 32:
        new_M, new_scale = new_M * 2.0 ** 32, new_scale / 2.0 ** 32
    return new_center, new_M, new_scale


def test_ellipsoid_cut_matches_reference_bitwise():
    gen = np.random.default_rng(12)
    for n in (2, 3, 7, 16):
        center, M, scale = gen.normal(size=n), 2.0 * np.eye(n), 1.0
        folds = 0
        for _ in range(400):
            g = gen.normal(size=n)
            g /= np.linalg.norm(g)
            ref_center, ref_M, ref_scale = _reference_factor_cut(center, M, scale, g)
            new_center, new_scale = kernels.ellipsoid_cut_py(center, M, scale, g)
            assert new_center.tobytes() == ref_center.tobytes()
            assert M.tobytes() == ref_M.tobytes()
            assert new_scale == ref_scale
            folds += new_scale < scale
            center, scale = new_center, new_scale
        # sigma^400 passes 2^32 at n = 2 and 3, not at n = 7 and 16
        assert (folds > 0) == (n <= 3)
