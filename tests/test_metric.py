import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparselvq.metric import (
    OmegaMatrix,
    RelevanceProfile,
    clamp_lambda,
    det_metric,
    grad_proto_lambda,
    grad_proto_omega,
    normalize_lambda,
    normalize_omega,
)

from fdcheck import assert_grad_close, central_diff, central_diff_matrix


def row_grad(met, delta):
    """d dist / d params at one difference row, through the two-row block
    gradient: the second row, at zero difference, adds exact zeros."""
    return met.winner_grads(np.stack([delta, 0 * delta]), (1.0, 1.0))[1]


def random_instance(rng, n=6, m=None):
    v = rng.normal(size=n)
    w = rng.normal(size=n)
    lam = rng.uniform(0.05, 1.5, size=n)
    om = rng.normal(size=(m or n, n))
    return v, w, RelevanceProfile(lam), OmegaMatrix(om)


class TestDistances:
    def test_d_lambda_zero_at_equal_points(self):
        rel = RelevanceProfile(np.array([0.3, 0.7]))
        v = np.array([1.0, 2.0])
        assert rel.dist(v, v) == 0.0

    def test_d_lambda_masked_dimension(self):
        rel = RelevanceProfile(np.array([1.0, 0.0]))
        assert rel.dist(np.array([0.0, 5.0]), np.array([0.0, 0.0])) == 0.0

    def test_d_lambda_matches_quadratic_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, w, rel, _ = random_instance(rng)
            big_lambda = np.diag(rel.lam**2)
            expected = (v - w) @ big_lambda @ (v - w)
            assert rel.dist(v, w) == pytest.approx(expected, rel=1e-12)

    def test_d_omega_identity_is_sq_euclidean(self):
        rng = np.random.default_rng(1)
        v, w = rng.normal(size=4), rng.normal(size=4)
        om = OmegaMatrix(np.eye(4))
        assert om.dist(v, w) == pytest.approx(np.sum((v - w) ** 2), rel=1e-12)

    def test_d_omega_zero_at_equal_points(self):
        om = OmegaMatrix(np.ones((2, 3)))
        v = np.array([1.0, -2.0, 0.5])
        assert om.dist(v, v) == 0.0

    def test_d_omega_matches_bilinear_form(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v, w, _, om = random_instance(rng, n=5, m=3)
            big_lambda = om.omega.T @ om.omega
            expected = (v - w) @ big_lambda @ (v - w)
            assert om.dist(v, w) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_diag_omega_equals_lambda_metric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            v, w = rng.normal(size=n), rng.normal(size=n)
            lam = rng.uniform(0, 1.5, size=n)
            a = RelevanceProfile(lam).dist(v, w)
            b = OmegaMatrix(np.diag(lam)).dist(v, w)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        rel = RelevanceProfile(np.ones(3))
        with pytest.raises(ValueError, match=r"vector shapes differ: \(3,\) vs \(4,\)"):
            rel.dist(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match=r"metric has 3 dims, vectors have shape \(4,\)"):
            rel.dist(np.ones(4), np.ones(4))
        with pytest.raises(ValueError, match=r"metric has 3 dims, vectors have shape \(4,\)"):
            OmegaMatrix(np.ones((2, 3))).dist(np.ones(4), np.ones(4))

    def test_parameters_of_the_wrong_rank(self):
        with pytest.raises(ValueError, match=r"relevance profile must be 1-D, got shape \(2, 3\)"):
            RelevanceProfile(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"projection must be 2-D, got shape \(3,\)"):
            OmegaMatrix(np.ones(3))


class TestGradients:
    """Every analytic gradient is checked against central finite differences."""

    def test_grad_proto_zero_at_equal_points(self):
        rng = np.random.default_rng(4)
        v, _, rel, om = random_instance(rng)
        assert np.all(grad_proto_lambda((v - v) * rel.lam, rel) == 0.0)
        assert np.all(grad_proto_omega((v - v) @ om.omega.T, om) == 0.0)

    def test_grad_proto_identity_metric_is_plain_shift(self):
        v = np.array([1.0, 2.0, 3.0])
        w = np.array([0.0, 1.0, -1.0])
        rel = RelevanceProfile(np.ones(3))
        assert np.allclose(grad_proto_lambda(v - w, rel), -2.0 * (v - w))

    def test_grad_proto_lambda_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v, w, rel, _ = random_instance(rng)
            fd = central_diff(lambda ww: rel.dist(v, ww), w)
            assert_grad_close(grad_proto_lambda((v - w) * rel.lam, rel), fd, rtol=1e-5,
                              label="proto/lambda")

    def test_grad_proto_omega_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v, w, _, om = random_instance(rng, n=5, m=3)
            fd = central_diff(lambda ww: om.dist(v, ww), w)
            assert_grad_close(grad_proto_omega((v - w) @ om.omega.T, om), fd, rtol=1e-5,
                              label="proto/omega")

    def test_grad_lambda_components(self):
        rng = np.random.default_rng(7)
        v, w, rel, _ = random_instance(rng)
        assert np.all(row_grad(rel, v - v) == 0.0)
        rel0 = RelevanceProfile(np.array([0.5, 0.0, 0.3]))
        g = row_grad(rel0, np.array([1.0, 2.0, 3.0]) - np.zeros(3))
        assert g[1] == 0.0

    def test_grad_lambda_fd(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v, w, rel, _ = random_instance(rng)
            fd = central_diff(lambda l: RelevanceProfile(l).dist(v, w), rel.lam)
            assert_grad_close(row_grad(rel, v - w), fd, rtol=1e-5, label="lambda")

    def test_grad_omega_scalar_case(self):
        # 1x1: d = (a*x)^2, derivative 2*a*x^2
        a, x = 0.7, 1.3
        g = row_grad(OmegaMatrix(np.array([[a]])), np.array([x]) - np.array([0.0]))
        assert g[0, 0] == pytest.approx(2 * a * x**2, rel=1e-12)

    def test_grad_omega_zero_at_equal_points(self):
        rng = np.random.default_rng(9)
        v, _, _, om = random_instance(rng, n=5, m=3)
        assert np.all(row_grad(om, v - v) == 0.0)

    def test_grad_omega_fd(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            v, w, _, om = random_instance(rng, n=5, m=3)
            fd = central_diff_matrix(
                lambda o: OmegaMatrix(o).dist(v, w), om.omega
            )
            assert_grad_close(row_grad(om, v - w), fd, rtol=1e-5, label="omega")


class TestWinnerGradients:
    """The two-row block the SGD step passes: both prototype gradients and
    the xi-weighted metric gradient from one call."""

    @staticmethod
    def block(rng, n):
        D2 = rng.normal(size=(2, n))
        D2[int(rng.integers(2))] = 0.0  # a sample sitting on one winner
        xi = (float(rng.uniform(0.1, 2.0)), -float(rng.uniform(0.1, 2.0)))
        return D2, xi

    def test_lambda_block_fd(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            D2, (xp, xm) = self.block(rng, n)
            rel = RelevanceProfile(rng.uniform(0.05, 1.5, size=n))

            def data_term(lam):
                met = RelevanceProfile(lam)
                return xp * met.dist(D2[0], 0 * D2[0]) + xm * met.dist(D2[1], 0 * D2[1])

            G, g = rel.winner_grads(D2, (xp, xm))
            assert_grad_close(g, central_diff(data_term, rel.lam), rtol=1e-5,
                              label="xi-weighted lambda")
            for k in (0, 1):
                fd = central_diff(lambda ww: rel.dist(D2[k], ww), 0 * D2[k])
                assert_grad_close(G[k], fd, rtol=1e-5, label=f"proto/lambda row {k}")

    def test_omega_block_fd(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            D2, (xp, xm) = self.block(rng, n)
            om = OmegaMatrix(rng.normal(size=(int(rng.integers(1, n + 1)), n)))

            def data_term(o):
                met = OmegaMatrix(o)
                return xp * met.dist(D2[0], 0 * D2[0]) + xm * met.dist(D2[1], 0 * D2[1])

            G, g = om.winner_grads(D2, (xp, xm))
            assert_grad_close(g, central_diff_matrix(data_term, om.omega), rtol=1e-5,
                              label="xi-weighted omega")
            for k in (0, 1):
                fd = central_diff(lambda ww: om.dist(D2[k], ww), 0 * D2[k])
                assert_grad_close(G[k], fd, rtol=1e-5, label=f"proto/omega row {k}")

    def test_omega_block_matches_per_row_formulas(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            D2, (xp, xm) = self.block(rng, n)
            D2[D2[:, 0] == 0.0] = rng.normal(size=n)  # no zero row: relative check
            O = rng.normal(size=(int(rng.integers(1, n + 1)), n))
            G, g = OmegaMatrix(O).winner_grads(D2, (xp, xm))
            # relative to the largest entry: entries that cancel carry only its rounding
            for k in (0, 1):
                ref = -2.0 * O.T @ (O @ D2[k])
                np.testing.assert_allclose(G[k], ref, rtol=1e-12,
                                           atol=1e-12 * np.abs(ref).max())
            terms = (xp * 2.0 * np.outer(O @ D2[0], D2[0]), xm * 2.0 * np.outer(O @ D2[1], D2[1]))
            np.testing.assert_allclose(g, terms[0] + terms[1], rtol=1e-12,
                                       atol=1e-12 * max(np.abs(t).max() for t in terms))

    def test_lambda_block_is_bit_identical_to_the_per_row_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            D2, (xp, xm) = self.block(rng, n)
            lam = rng.uniform(0.0, 1.0, size=n)
            G, g = RelevanceProfile(lam).winner_grads(D2, (xp, xm))
            assert np.array_equal(g, xp * (2.0 * (lam * D2[0]) * D2[0])
                                  + xm * (2.0 * (lam * D2[1]) * D2[1]))
            assert np.array_equal(G, -2.0 * lam * (lam * D2))

    def test_no_factors_no_metric_gradient(self):
        D2 = np.ones((2, 3))
        for met in (RelevanceProfile.uniform(3), OmegaMatrix(np.eye(3))):
            G, g = met.winner_grads(D2, None)
            assert g is None and G.shape == (2, 3)


class TestNormalizeClamp:
    def test_normalize_three_four_five(self):
        out = normalize_lambda(RelevanceProfile(np.array([3.0, 4.0])))
        assert np.allclose(out.lam, [0.6, 0.8])

    def test_normalize_idempotent(self):
        rng = np.random.default_rng(11)
        rel = normalize_lambda(RelevanceProfile(rng.uniform(0.1, 2, size=9)))
        again = normalize_lambda(rel)
        assert np.allclose(again.lam, rel.lam, atol=1e-12)

    def test_normalize_omega_unit_frobenius(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            om = normalize_omega(OmegaMatrix(rng.normal(size=(3, 7))))
            assert np.sqrt(np.sum(om.omega**2)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.01, 100.0))
    def test_normalize_scale_invariant(self, c):
        lam = np.array([0.2, 1.4, 0.7, 3.0])
        a = normalize_lambda(RelevanceProfile(lam))
        b = normalize_lambda(RelevanceProfile(c * lam))
        assert np.allclose(a.lam, b.lam, atol=1e-12)

    def test_normalize_divides_by_the_numpy_norm(self):
        rng = np.random.default_rng(18)
        lam = rng.uniform(0.0, 1.0, size=201)
        assert np.array_equal(normalize_lambda(RelevanceProfile(lam)).lam,
                              lam / np.linalg.norm(lam))
        for O in (rng.normal(size=(20, 200)), np.asfortranarray(rng.normal(size=(7, 9)))):
            assert np.array_equal(normalize_omega(OmegaMatrix(O)).omega, O / np.linalg.norm(O))

    def test_normalize_all_zero(self):
        with pytest.raises(ValueError, match="relevance profile is all zero"):
            normalize_lambda(RelevanceProfile(np.zeros(3)))
        with pytest.raises(ValueError, match="projection matrix is all zero"):
            normalize_omega(OmegaMatrix(np.zeros((2, 3))))

    def test_clamp_basic(self):
        out = clamp_lambda(RelevanceProfile(np.array([0.5, -0.1])))
        assert np.array_equal(out.lam, [0.5, 0.0])

    def test_clamp_all_negative(self):
        # clamping alone returns the zero profile; the step's renormalization refuses it
        assert np.array_equal(clamp_lambda(RelevanceProfile(np.array([-0.5, -0.1]))).lam, [0.0, 0.0])
        with pytest.raises(ValueError, match="relevance profile is all zero"):
            RelevanceProfile.uniform(2).stepped(np.array([-0.5, -0.1]))

    def test_clamp_componentwise(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=40)
        x[0] = abs(x[0]) + 0.1  # keep at least one positive
        out = clamp_lambda(RelevanceProfile(x))
        for i in range(x.size):
            assert out.lam[i] == max(x[i], 0.0)


class TestDegeneracyMonitor:
    def test_rectangular_returns_none(self):
        assert det_metric(OmegaMatrix(np.ones((2, 4)))) is None

    def test_square_nonsingular(self):
        om = OmegaMatrix(np.diag([0.5, 0.5]))
        assert det_metric(om) == pytest.approx(0.0625)

    def test_square_near_singular_is_tiny(self):
        om = OmegaMatrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]))
        assert det_metric(om) < 1e-12

    def test_omega_must_not_be_wide(self):
        with pytest.raises(ValueError):
            OmegaMatrix(np.ones((4, 2)))
