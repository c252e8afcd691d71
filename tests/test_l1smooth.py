import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparselvq.l1smooth import (
    abs_smooth,
    abs_smooth_grad,
    l1_smooth,
    matrix_l1_exact,
    matrix_l1_smooth,
    matrix_l1_smooth_grad,
    sandwich_check,
)

from fdcheck import assert_grad_close, central_diff_matrix

BOUND = 2.0 * math.log(2.0)  # times 1/alpha


class TestAbsSmooth:
    def test_at_zero(self):
        assert abs_smooth(0.0, 5.0) == pytest.approx(math.log(4.0) / 5.0, abs=1e-15)

    def test_large_x_within_bound(self):
        assert abs(abs_smooth(10.0, 5.0) - 10.0) <= BOUND / 5.0

    def test_even_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-50, 50, size=100)
        assert np.array_equal(abs_smooth(x, 5.0), abs_smooth(-x, 5.0))

    @given(st.floats(-100, 100), st.sampled_from([1.0, 5.0, 50.0]))
    def test_overestimates_within_bound(self, x, alpha):
        diff = float(abs_smooth(x, alpha)) - abs(x)
        assert 0.0 <= diff <= BOUND / alpha

    def test_no_overflow_for_huge_arguments(self):
        with np.errstate(over="raise"):
            assert abs_smooth(1e6, 5.0) == pytest.approx(1e6)
            assert abs_smooth(-1e300, 50.0) == pytest.approx(1e300)

    @pytest.mark.parametrize("alpha", [0.5, 5.0, 50.0, 1e6])
    @pytest.mark.parametrize("x", [0.0, 1e-300, -1e-300, 0.3, -0.3, 1e6, -1e6,
                                   1e300, -1e300, math.inf, -math.inf, math.nan])
    def test_python_float_matches_the_array_path(self, x, alpha):
        ref = float(abs_smooth(np.array([x]), alpha)[0])
        with np.errstate(all="raise"):
            got = abs_smooth(x, alpha)
        assert type(got) is float
        if math.isnan(ref) or math.isinf(ref):
            assert got == ref or (math.isnan(got) and math.isnan(ref))
        else:
            assert abs(got - ref) <= 2 * math.ulp(ref)

    def test_numpy_scalar_keeps_its_type(self):
        assert type(abs_smooth(np.float64(0.3), 5.0)) is np.float64

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            abs_smooth(1.0, 0.0)
        with pytest.raises(ValueError):
            abs_smooth(1.0, -3.0)


class TestAbsSmoothGrad:
    def test_zero(self):
        assert abs_smooth_grad(0.0, 5.0) == 0.0

    def test_saturates(self):
        # alpha=5 at x=2 is tanh(5)
        assert abs_smooth_grad(2.0, 5.0) == pytest.approx(math.tanh(5.0), abs=1e-15)
        assert abs_smooth_grad(2.0, 5.0) == pytest.approx(0.999909, abs=1e-6)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-7
        for x in rng.uniform(-3, 3, size=200):
            fd = (abs_smooth(x + h, 5.0) - abs_smooth(x - h, 5.0)) / (2 * h)
            assert abs_smooth_grad(x, 5.0) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_algebraic_identity(self):
        # (e^{ax} - e^{-ax}) / (2 + e^{ax} + e^{-ax}) == tanh(ax/2)
        rng = np.random.default_rng(3)
        alpha = 5.0
        for x in rng.uniform(-100, 100, size=1000):
            z = alpha * x
            direct = (math.exp(z) - math.exp(-z)) / (2 + math.exp(z) + math.exp(-z)) \
                if abs(z) < 700 else math.copysign(1.0, z)
            assert abs(float(abs_smooth_grad(x, alpha)) - direct) < 1e-12

    def test_odd_and_increasing(self):
        xs = np.linspace(-4, 4, 101)
        g = abs_smooth_grad(xs, 5.0)
        assert np.all(np.diff(g) > 0)
        assert np.allclose(g, -abs_smooth_grad(-xs, 5.0))
        assert np.all(np.abs(g) < 1.0)


class TestL1Smooth:
    def test_zero_vector(self):
        assert l1_smooth(np.zeros(3), 5.0) == pytest.approx(3 * math.log(4.0) / 5.0, abs=1e-14)

    def test_pm_one(self):
        val = l1_smooth(np.array([1.0, -1.0]), 5.0)
        assert 2.0 <= val <= 2.0 + 4 * math.log(2.0) / 5.0

    def test_sharp_alpha_approaches_exact(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-2, 2, size=7)
        alpha = 1e4
        assert abs(l1_smooth(v, alpha) - np.abs(v).sum()) <= 2 * v.size * math.log(2.0) / alpha


class TestMatrixL1Smooth:
    def test_identity_sharp(self):
        assert matrix_l1_smooth(np.eye(2), 1e4) == pytest.approx(1.0, abs=1e-2)

    def test_zero_matrix_matches_scalar_fold(self):
        # independent oracle: fold the recursion on equal entries with
        # plain python floats
        alpha = 5.0
        m, n = 4, 6
        s = m * math.log(4.0) / alpha  # smoothed column sum of a zero column
        acc = s
        for _ in range(n - 1):
            gap = acc - s
            acc = 0.5 * (acc + s + (gap + (2 / alpha) * math.log1p(math.exp(-alpha * gap))))
        assert matrix_l1_smooth(np.zeros((m, n)), alpha) == pytest.approx(acc, abs=1e-13)

    def test_sharp_alpha_matches_exact_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mat = rng.normal(size=(3, 4))
            assert matrix_l1_smooth(mat, 1e4) == pytest.approx(
                matrix_l1_exact(mat), abs=1e-2
            )

    def test_error_bound(self):
        rng = np.random.default_rng(7)
        for alpha in (5.0, 50.0, 1e3):
            for _ in range(20):
                m, n = rng.integers(1, 6, size=2)
                mat = rng.normal(size=(m, n))
                err = matrix_l1_smooth(mat, alpha) - matrix_l1_exact(mat)
                assert -1e-12 <= err <= (m + 2 * (n - 1)) * BOUND / alpha

    def test_column_permutation_near_invariance(self):
        rng = np.random.default_rng(8)
        mat = rng.uniform(-1, 1, size=(4, 6))
        base = matrix_l1_smooth(mat, 1e3)
        for _ in range(10):
            perm = rng.permutation(6)
            assert matrix_l1_smooth(mat[:, perm], 1e3) == pytest.approx(base, abs=1e-6)

    def test_monotone_in_entry_magnitude(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            mat = rng.normal(size=(3, 5))
            base = matrix_l1_smooth(mat, 5.0)
            i, j = rng.integers(0, 3), rng.integers(0, 5)
            probe = mat.copy()
            probe[i, j] += 0.05 * np.sign(probe[i, j] or 1.0)
            assert matrix_l1_smooth(probe, 5.0) >= base


class TestMatrixL1SmoothGrad:
    def test_single_entry_reduces_to_tanh(self):
        for x in (-1.3, 0.0, 0.4, 2.0):
            g = matrix_l1_smooth_grad(np.array([[x]]), 5.0)
            assert g[0, 0] == pytest.approx(math.tanh(5.0 * x / 2.0), abs=1e-15)

    def test_zero_matrix_uniform_and_matches_fd(self):
        mat = np.zeros((3, 4))
        g = matrix_l1_smooth_grad(mat, 5.0)
        assert np.allclose(g, g[0, 0])
        fd = central_diff_matrix(lambda m: matrix_l1_smooth(m, 5.0), mat)
        assert_grad_close(g, fd, rtol=1e-4, label="zero matrix")

    @pytest.mark.parametrize("shape", [(3, 4), (1, 5), (4, 4), (2, 7)])
    def test_matches_finite_differences(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for _ in range(10):
            mat = rng.normal(scale=0.7, size=shape)
            g = matrix_l1_smooth_grad(mat, 5.0)
            fd = central_diff_matrix(lambda m: matrix_l1_smooth(m, 5.0), mat)
            assert_grad_close(g, fd, rtol=1e-4, label=f"fold grad {shape}")


class TestLogSumExpIdentity:
    """The smooth max is (1/a) ln(e^{a x} + e^{a y}), so the fold over the
    smoothed column sums s is logsumexp(a s) / a and its gradient is
    softmax(a s)[c] * tanh(a O / 2), whatever the column order."""

    @staticmethod
    def column_sums(om, alpha):
        # |x|_a = (2/a) ln(2 cosh(a x / 2)), written without abs_smooth
        return (2.0 / alpha) * np.logaddexp(0.5 * alpha * om, -0.5 * alpha * om).sum(axis=0)

    @pytest.mark.parametrize("alpha", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (4, 1), (3, 4), (20, 200)])
    def test_value_and_gradient(self, alpha, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        om = rng.normal(scale=0.7, size=shape)
        s = self.column_sums(om, alpha)
        lse = np.logaddexp.reduce(alpha * s)
        assert matrix_l1_smooth(om, alpha) == pytest.approx(lse / alpha, rel=1e-12, abs=0)
        expected = np.exp(alpha * s - lse)[np.newaxis, :] * np.tanh(0.5 * alpha * om)
        assert np.max(np.abs(matrix_l1_smooth_grad(om, alpha) - expected)) <= 1e-12


class TestSandwich:
    def test_identity(self):
        n = 4
        res = sandwich_check(np.eye(n))
        assert res.lower == pytest.approx(1.0 / n)
        assert res.middle == pytest.approx(1.0)
        assert res.upper == pytest.approx(n)
        assert res.holds

    def test_diagonal_case_by_hand(self):
        res = sandwich_check(np.diag([0.6, 0.8]))
        assert res.lower == pytest.approx(0.8**2 / 2)  # 0.32
        assert res.middle == pytest.approx(0.64)
        assert res.upper == pytest.approx(2 * 0.8**2)  # 1.28
        assert res.holds

    def test_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            mat = rng.normal(scale=rng.uniform(0.1, 3.0), size=(m, n))
            res = sandwich_check(mat)
            assert res.holds, f"sandwich failed for\n{mat!r}\n{res}"
