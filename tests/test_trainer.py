import json
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparselvq.dataset import LabeledDataset, SplitSpec, split, synth_sparse
from sparselvq.glvq import (
    PrototypeSet,
    TransferFn,
    class_index_table,
    winners_from_distances,
    xi_factors,
)
from sparselvq.l1smooth import abs_smooth_grad, matrix_l1_smooth_grad
from sparselvq.metric import OmegaMatrix, RelevanceProfile
from sparselvq.trainer import (
    DIST_BLOCK_ROWS,
    EpochMetrics,
    LVQModel,
    NonFiniteUpdate,
    PathSchedule,
    TrainConfig,
    confusion_matrix,
    dataset_cost,
    distance_matrix,
    evaluate,
    init_model,
    load_model,
    predict,
    reg_term_of,
    run_path,
    save_model,
    sparsity_of,
    train,
    train_epoch,
)

IDENTITY = TransferFn()
KINDS = ("glvq", "grlvq", "gmlvq")


def small_data(seed=0, n_dims=6, n_informative=3, classes=2, per_class=20, sigma=1.0):
    return synth_sparse(n_dims, n_informative, classes, per_class, sigma, seed)


def random_model(rng, kind, n=5, n_classes=3, protos_per_class=2, m=3):
    protos = PrototypeSet(
        rng.normal(size=(n_classes * protos_per_class, n)),
        np.repeat(np.arange(n_classes), protos_per_class),
    )
    met = None
    if kind == "grlvq":
        lam = rng.uniform(0.1, 1.0, size=n)
        met = RelevanceProfile(lam / np.linalg.norm(lam))
    elif kind == "gmlvq":
        om = rng.normal(size=(m, n))
        met = OmegaMatrix(om / np.linalg.norm(om))
    return LVQModel(kind, protos, met)


class TestSparsityOf:
    def test_uniform_profile(self):
        assert sparsity_of(RelevanceProfile.uniform(200).lam, 1e-4) == 0.0  # each lam^2 = 0.005

    def test_one_hot(self):
        lam = np.zeros(50)
        lam[7] = 1.0
        assert sparsity_of(lam, 1e-4) == pytest.approx(49 / 50)

    def test_threshold_positive(self):
        for threshold in (0.0, float("nan")):  # NaN is not <= 0 either
            with pytest.raises(ValueError, match="threshold must be positive"):
                sparsity_of(RelevanceProfile.uniform(4).lam, threshold)


class TestEvaluatePredict:
    def test_class_means_on_noiseless_data(self):
        data = synth_sparse(8, 3, 3, 10, noise_sigma=0.0, seed=1)
        cfg = TrainConfig(model_kind="glvq", epochs=1, seed=0)
        model = init_model(data, cfg)
        model.protos.vectors = np.array([
            data.features[data.labels == c][0] for c in range(3)
        ])
        assert evaluate(model, data) == 1.0

    def test_boundary_tie_breaks_to_lowest_index(self):
        protos = PrototypeSet(np.array([[0.0], [2.0]]), np.array([0, 1]))
        model = LVQModel("glvq", protos)
        assert predict(model, np.array([[1.0]]))[0] == 0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(2)
        for kind in ("glvq", "grlvq", "gmlvq"):
            model = random_model(rng, kind)
            X = rng.normal(size=(40, 5))
            pred = predict(model, X)
            for i, v in enumerate(X):
                dists = [model.dist(v, w) for w in model.protos.vectors]
                best = int(np.argmin(dists))
                assert pred[i] == model.protos.labels[best]

    def test_distance_matrix_matches_scalar_metric(self):
        rng = np.random.default_rng(3)
        for kind in ("glvq", "grlvq", "gmlvq"):
            model = random_model(rng, kind)
            X = rng.normal(size=(10, 5))
            D = distance_matrix(model, X)
            for i in range(10):
                for j in range(model.protos.n_protos):
                    assert D[i, j] == pytest.approx(
                        model.dist(X[i], model.protos.vectors[j]), rel=1e-9, abs=1e-12
                    )

    def test_dataset_cost_matches_scalar_cost(self):
        rng = np.random.default_rng(4)
        data = small_data(seed=5)
        model = random_model(rng, "grlvq", n=6, n_classes=2)
        scalar = 0.0
        for v, c in zip(data.features, data.labels):
            dists = np.array([model.dist(v, w) for w in model.protos.vectors])
            dp = dists[model.protos.labels == c].min()
            dm = dists[model.protos.labels != c].min()
            scalar += 0.5 * (dp - dm) / (dp + dm)
        assert dataset_cost(model, data, IDENTITY) == pytest.approx(scalar, rel=1e-9)


class TestDistanceMatrix:
    @staticmethod
    def scalar_distances(model, X):
        return np.array([[model.dist(x, w) for w in model.protos.vectors] for x in X])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_rows", [1, DIST_BLOCK_ROWS - 1, DIST_BLOCK_ROWS,
                                        DIST_BLOCK_ROWS + 1])
    def test_matches_scalar_metric_across_block_boundaries(self, kind, n_rows):
        rng = np.random.default_rng(n_rows)
        model = random_model(rng, kind, protos_per_class=1)
        X = rng.normal(size=(n_rows, 5))
        D = distance_matrix(model, X)
        scalar = self.scalar_distances(model, X)
        assert D.shape == (n_rows, model.protos.n_protos)
        assert D == pytest.approx(scalar, rel=1e-9)
        assert np.array_equal(predict(model, X),
                              model.protos.labels[np.argmin(scalar, axis=1)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_large_common_offset_does_not_cancel(self, kind):
        rng = np.random.default_rng(61)
        model = random_model(rng, kind)
        model.protos.vectors += 1e6
        X = rng.normal(size=(50, 5)) + 1e6
        assert distance_matrix(model, X) == pytest.approx(
            self.scalar_distances(model, X), rel=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_wide_rows_across_blocks_match_scalar_metric(self, kind, offset):
        # image-sized width: the cross term runs through BLAS, whose blocked
        # summation order differs from the scalar metric's
        rng = np.random.default_rng(97)
        model = random_model(rng, kind, n=200, n_classes=5, protos_per_class=1, m=20)
        model.protos.vectors += offset
        X = rng.normal(size=(2 * DIST_BLOCK_ROWS + 3, 200)) + offset
        scalar = self.scalar_distances(model, X)
        np.testing.assert_allclose(distance_matrix(model, X), scalar, rtol=1e-12)
        assert np.array_equal(predict(model, X),
                              model.protos.labels[np.argmin(scalar, axis=1)])

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_row_equal_to_a_prototype_is_at_zero_and_wins(self, kind, offset):
        rng = np.random.default_rng(67)
        model = random_model(rng, kind)
        model.protos.vectors += offset
        W = model.protos.vectors
        # rows on each prototype, then rows 1e-9 away, where the expansion
        # rounds to tiny values of either sign before the clamp
        near = [W] + [W + 1e-9 * rng.normal(size=W.shape) for _ in range(10)]
        X = np.vstack([rng.normal(size=(20, 5)) + offset] + near)
        D = distance_matrix(model, X)
        assert np.all(D >= 0.0)
        own = np.tile(np.arange(model.protos.n_protos), len(near))
        assert D[20:][np.arange(own.size), own] == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(np.argmin(D[20:], axis=1), own)
        assert np.array_equal(predict(model, X)[20:], model.protos.labels[own])

    @pytest.mark.parametrize("n_protos", [2, 3, 5])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_coinciding_prototypes_tie_to_the_lower_index(self, kind, offset, n_protos):
        # two prototypes share one vector but not their label and are nearest
        # to every row: the last two, or with three the first and the last
        # (W = [a, b, a]); with five, a BLAS product can round their entries
        # 3 and 4 differently (OpenBLAS 0.3.31 does for glvq)
        low, high = (0, 2) if n_protos == 3 else (n_protos - 2, n_protos - 1)
        rng = np.random.default_rng(83)
        model = random_model(rng, kind, n=200, n_classes=n_protos, protos_per_class=1, m=20)
        W = model.protos.vectors
        W += offset
        W[high] = W[low]
        X = W[low] + 0.5 * rng.normal(size=(2 * DIST_BLOCK_ROWS + 3, 200))
        assert np.all(predict(model, X) == model.protos.labels[low])
        # the epoch metrics' distances: equal columns, so the same winner
        D = distance_matrix(model, X)
        assert np.array_equal(D[:, high], D[:, low])
        assert np.all(np.argmin(D, axis=1) == low)
        data = LabeledDataset(X, rng.choice(model.protos.labels[[low, high]], size=len(X)))
        assert evaluate(model, data) == evaluate(model, data, predict(model, X))

    def test_glvq_distance_is_squared_euclidean_over_n(self):
        # glvq is grlvq with the uniform profile, so every lam_i^2 is 1/n
        rng = np.random.default_rng(89)
        model = random_model(rng, "glvq", n=7)
        X = rng.normal(size=(30, 7))
        euclid = np.sum((X[:, np.newaxis, :] - model.protos.vectors) ** 2, axis=2)
        np.testing.assert_allclose(self.scalar_distances(model, X), euclid / 7, rtol=1e-12)
        np.testing.assert_allclose(distance_matrix(model, X), euclid / 7, rtol=1e-12)
        assert np.array_equal(predict(model, X), model.protos.labels[np.argmin(euclid, axis=1)])

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5), (4, 6)])
    def test_wrong_shape_raises_dimension_mismatch(self, shape):
        model = random_model(np.random.default_rng(71), "grlvq")
        message = ("model expects 5 features, data has 6" if len(shape) == 2
                   else r"expected a 2-D \(samples, features\) array, got shape")
        for fn in (distance_matrix, predict):
            with pytest.raises(ValueError, match=message):
                fn(model, np.zeros(shape))

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_rows_give_empty_results(self, kind):
        model = random_model(np.random.default_rng(73), kind)
        assert distance_matrix(model, np.zeros((0, 5))).shape == (0, model.protos.n_protos)
        assert predict(model, np.zeros((0, 5))).shape == (0,)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_row_is_refused_by_its_index(self, kind):
        # a NaN no-data pixel, then an inf in a dimension of zero relevance
        # for grlvq and gmlvq (inf * 0 is NaN), both in the second block;
        # one error each, and no numpy warning before it
        model = random_model(np.random.default_rng(101), kind)
        if kind != "glvq":
            params = model.metric.params.copy()
            params[..., -1] = 0.0
            model = LVQModel(kind, model.protos, type(model.metric)(params))
        X = np.random.default_rng(103).normal(size=(2 * DIST_BLOCK_ROWS, 5))
        first = DIST_BLOCK_ROWS + 3
        X[first, 1] = np.nan
        X[first + 5, -1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (first, first + 5):
                for fn in (predict, distance_matrix):
                    with pytest.raises(ValueError, match=f"row {bad} gives a non-finite score"):
                        fn(model, X)
                X[bad] = 0.0
            assert distance_matrix(model, X).shape == (len(X), model.protos.n_protos)

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_whose_distance_overflows_is_refused_by_its_index(self, kind):
        # 1e200 gives a finite score, but its square overflows |P x|^2
        model = random_model(np.random.default_rng(107), kind)
        X = np.random.default_rng(109).normal(size=(2 * DIST_BLOCK_ROWS, 5))
        X[DIST_BLOCK_ROWS + 7, 2] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict(model, X).shape == (len(X),)
            with pytest.raises(ValueError, match=f"row {DIST_BLOCK_ROWS + 7} gives a "
                                                 f"non-finite distance"):
                distance_matrix(model, X)

    @pytest.mark.parametrize("weight,expected", [
        (1e-200, [[1.0, 2.0], [0.81, 0.01]]),  # the weight squares to 0
        (1e-150, [[1e100, 1e100], [0.81, 0.01]]),  # the cell squares to inf
    ])
    def test_a_tiny_weight_on_a_huge_cell_gives_their_product(self, weight, expected):
        # dimension 1 counts by (1e200 * weight)^2, though weight^2 underflows
        # or the cell's square overflows: the profile projects before squaring
        model = LVQModel("grlvq", PrototypeSet(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                               np.array([0, 1])),
                         RelevanceProfile([1.0, weight]))
        X = np.array([[0.0, 1e200], [0.9, 0.0]])
        data = LabeledDataset(X, np.array([0, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distance_matrix(model, X)
            np.testing.assert_allclose(got, expected)
            per_pair = [[model.dist(x, w) for w in model.protos.vectors] for x in X]
            np.testing.assert_allclose(got, per_pair, rtol=1e-12)
            assert evaluate(model, data) == evaluate(model, data, predict(model, X)) == 1.0

    @settings(max_examples=60)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    def test_evaluate_agrees_with_predict_however_large_the_unused_cells(self, kind, seed):
        # cells up to 1e200 only where the profile or Omega's column is zero
        # (glvq has none), O(1) cells elsewhere, no row near a tie
        rng = np.random.default_rng(seed)
        n, n_classes = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        model = random_model(rng, kind, n=n, n_classes=n_classes,
                             protos_per_class=int(rng.integers(1, 3)),
                             m=int(rng.integers(1, n + 1)))
        unused = []
        if kind != "glvq":
            unused = rng.permutation(n)[:rng.integers(1, n)]
            params = model.metric.params.copy()
            params[..., unused] = 0.0
            model = LVQModel(kind, model.protos, type(model.metric)(params))
        X = rng.normal(size=(int(rng.integers(1, 30)), n))
        X[:, unused] = (rng.choice([-1.0, 1.0], size=(len(X), len(unused)))
                        * 10.0 ** rng.uniform(0, 200, size=(len(X), len(unused))))
        P = model.metric.omega if kind == "gmlvq" else np.diag(model.metric.lam)
        ref = np.sort(np.sum(((X[:, np.newaxis] - model.protos.vectors) @ P.T) ** 2, axis=2))
        assume(np.all(ref[:, 1] - ref[:, 0] > 1e-6 * (1.0 + ref[:, 1])))
        data = LabeledDataset(X, rng.integers(0, n_classes, size=len(X)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(distance_matrix(model, X)).all()
            assert evaluate(model, data) == evaluate(model, data, predict(model, X))

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_memory_is_bounded(self, kind):
        # a per-pair (N, M, n) difference array alone would be 20000 * 20 * 50 * 8 = 160 MB
        rng = np.random.default_rng(79)
        model = random_model(rng, kind, n=50, n_classes=20, protos_per_class=1, m=10)
        X = rng.normal(size=(20_000, 50))
        tracemalloc.start()
        try:
            predict(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestTrainEpoch:
    def test_zero_rates_keep_state(self):
        data = small_data()
        cfg = TrainConfig(model_kind="grlvq", epochs=1, rate_proto=0.0,
                          rate_metric=0.0, seed=3)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        before_w = model.protos.vectors.copy()
        before_l = model.metric.lam.copy()
        m = train_epoch(model, data, cfg, 0.5, rng)
        assert np.array_equal(model.protos.vectors, before_w)
        assert np.array_equal(model.metric.lam, before_l)
        assert isinstance(m, EpochMetrics)
        for value in (m.train_accuracy, m.cost, m.reg_term, m.sparsity):
            assert np.isfinite(value)
        assert m.test_accuracy is None  # no held-out set

    def test_frozen_uniform_profile_reduces_to_glvq(self):
        data = small_data(seed=7, per_class=25)
        base = dict(epochs=4, rate_proto=1e-2, rate_metric=0.0, seed=11)
        cfg_r = TrainConfig(model_kind="grlvq", **base)
        cfg_g = TrainConfig(model_kind="glvq", **base)
        rng_r = np.random.default_rng(11)
        rng_g = np.random.default_rng(11)
        m_r = init_model(data, cfg_r, rng_r)
        m_g = init_model(data, cfg_g, rng_g)
        assert np.array_equal(m_r.protos.vectors, m_g.protos.vectors)
        train(m_r, data, cfg_r, rng=rng_r)
        train(m_g, data, cfg_g, rng=rng_g)
        # the uniform profile rescales distances; the induced prototype
        # trajectory is scale invariant, so both runs coincide
        np.testing.assert_allclose(
            m_r.protos.vectors, m_g.protos.vectors, rtol=1e-8, atol=1e-12
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_step_takes_every_gradient_at_the_pre_step_state(self, kind):
        """Both winner rows and the metric move by gradients of the pre-step
        metric `met0` at the pre-step prototypes; no other row moves."""
        rng = np.random.default_rng(31)
        model = random_model(rng, kind)
        v, label = rng.normal(size=5), 1
        W0, met0 = model.protos.vectors.copy(), model.copy().metric
        win = winners_from_distances(met0.dists(v - W0),
                                     *class_index_table(model.protos.labels, [label])[label])
        xp, xm = xi_factors(win.d_plus, win.d_minus, IDENTITY)
        cfg = TrainConfig(model_kind=kind, rate_proto=0.05, rate_metric=0.02)
        reg_weight = 0.5
        train_epoch(model, LabeledDataset(v[np.newaxis], np.array([label])), cfg,
                    reg_weight, np.random.default_rng(0))
        W = model.protos.vectors
        G, g_data = met0.winner_grads(v - W0[[win.idx_plus, win.idx_minus]], (xp, xm))
        for k, (i, xi) in enumerate(((win.idx_plus, xp), (win.idx_minus, xm))):
            np.testing.assert_allclose(W[i], W0[i] - cfg.rate_proto * xi * G[k], rtol=1e-12)
        others = np.setdiff1d(np.arange(W.shape[0]), [win.idx_plus, win.idx_minus])
        assert np.array_equal(W[others], W0[others])
        if kind == "glvq":
            assert np.array_equal(model.metric.params, met0.params)
        else:
            g = g_data + reg_weight * met0.penalty_grad(cfg.alpha)
            expected = met0.stepped(met0.params - cfg.rate_metric * g)
            np.testing.assert_allclose(model.metric.params, expected.params, rtol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_epoch_matches_the_per_pair_reference(self, kind):
        """One epoch against a loop that takes one gradient per winner row:
        -2 lam (lam delta) and 2 (lam delta) delta, or -2 O^T O delta and
        2 outer(O delta, delta), combined as xi+ g+ + xi- g-."""
        data = small_data(seed=59, n_dims=12, n_informative=4, classes=3, per_class=15)
        cfg = TrainConfig(model_kind=kind, omega_rows=5 if kind == "gmlvq" else 0,
                          protos_per_class=2, rate_proto=0.05, rate_metric=0.01, seed=59)
        model = init_model(data, cfg)
        # a state away from the initial one
        train(model, data, replace(cfg, epochs=2), rng=np.random.default_rng(cfg.seed))
        W, labels = model.protos.vectors.copy(), model.protos.labels
        lam = model.metric.lam.copy() if kind != "gmlvq" else None
        O = model.metric.omega.copy() if kind == "gmlvq" else None
        t, reg_weight, alpha = 3, 0.2, cfg.alpha
        decay = 1.0 / (1.0 + cfg.rate_decay * t)
        rate_p, rate_m = cfg.rate_proto * decay, cfg.rate_metric * decay
        X, y = data.features, data.labels
        for idx in np.random.default_rng(5).permutation(data.n_samples):
            D = X[idx] - W
            P = D * lam if O is None else D @ O.T
            dists = np.einsum("ij,ij->i", P, P)
            same, other = np.flatnonzero(labels == y[idx]), np.flatnonzero(labels != y[idx])
            ip, im = same[dists[same].argmin()], other[dists[other].argmin()]
            dp, dm = float(dists[ip]), float(dists[im])
            if dp + dm == 0.0:
                continue
            common = 2.0 * 1.0 / (dp + dm)  # f'(mu) = 1 for the identity transfer
            xp, xm = common * (dm / (dp + dm)), -common * (dp / (dp + dm))
            if O is None:
                gp, gm = -2.0 * lam * (lam * D[ip]), -2.0 * lam * (lam * D[im])
                g = xp * (2.0 * (lam * D[ip]) * D[ip]) + xm * (2.0 * (lam * D[im]) * D[im])
                g += reg_weight * abs_smooth_grad(lam, alpha)
            else:
                gp, gm = -2.0 * (O.T @ (O @ D[ip])), -2.0 * (O.T @ (O @ D[im]))
                g = (xp * (2.0 * np.outer(O @ D[ip], D[ip]))
                     + xm * (2.0 * np.outer(O @ D[im], D[im])))
                g += reg_weight * matrix_l1_smooth_grad(O, alpha)
            W[ip] -= rate_p * xp * gp
            W[im] -= rate_p * xm * gm
            if kind == "grlvq":
                lam = np.maximum(lam - rate_m * g, 0.0)
                lam = lam / np.linalg.norm(lam)
            elif kind == "gmlvq":
                O = O - rate_m * g
                O = O / np.linalg.norm(O)

        train_epoch(model, data, cfg, reg_weight, np.random.default_rng(5), t)
        if kind == "gmlvq":
            np.testing.assert_allclose(model.protos.vectors, W, rtol=1e-12)
            np.testing.assert_allclose(model.metric.omega, O, rtol=1e-12)
        else:
            assert np.array_equal(model.protos.vectors, W)
            assert np.array_equal(model.metric.lam, lam)

    def test_separable_blobs_reach_high_accuracy(self):
        data = synth_sparse(2, 2, 2, 50, noise_sigma=1.0, seed=13)
        cfg = TrainConfig(model_kind="glvq", epochs=50, seed=2)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        metrics = train(model, data, cfg, rng=rng)
        assert metrics[-1].train_accuracy >= 0.95

    def test_degenerate_duplicate_sample_is_skipped(self):
        # identical point in both classes, prototypes collapse onto it
        X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        data = LabeledDataset(X, y)
        protos = PrototypeSet(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0, 1]))
        model = LVQModel("glvq", protos)
        cfg = TrainConfig(model_kind="glvq", epochs=1, seed=0)
        m = train_epoch(model, data, cfg, 0.0, np.random.default_rng(0))
        assert np.array_equal(model.protos.vectors, [[1.0, 1.0], [1.0, 1.0]])
        assert np.isfinite(m.cost)

    def test_nonfinite_update_aborts_with_step(self):
        data = small_data(seed=17)
        cfg = TrainConfig(model_kind="glvq", epochs=5, rate_proto=1e200, seed=5)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdate) as exc:
            train(model, data, cfg, rng=rng)
        assert exc.value.step >= 0

    def test_nan_distance_aborts_rather_than_picking_a_finite_winner(self):
        # the row's difference to prototype 1 overflows to inf where lam_1 is 0:
        # inf * 0 is a NaN distance to prototype 1, the later one of class 0,
        # while prototype 0 is at distance 0; argmin picks the NaN, and so must
        # the step
        W = np.array([[0.0, 1e308], [0.0, -1e308], [1.0, 1e308]])
        model = LVQModel("grlvq", PrototypeSet(W, np.array([0, 0, 1])),
                         RelevanceProfile([1.0, 0.0]))
        data = LabeledDataset(np.array([[0.0, 1e308]]), np.array([0]))
        with np.errstate(all="ignore"):
            assert np.isnan(model.metric.dists(data.features[0] - W)).tolist() == [
                False, True, False]
            with pytest.raises(NonFiniteUpdate, match=r"d\+ nan"):
                train_epoch(model, data, TrainConfig(), 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_tied_winners_move_the_lowest_index_prototype(self, kind):
        rng = np.random.default_rng(47)
        model = random_model(rng, kind, n_classes=2)  # prototypes 0, 1 of class 0; 2, 3 of 1
        W = model.protos.vectors
        W[1], W[3] = W[0], W[2]
        before = W.copy()
        data = LabeledDataset(rng.normal(size=(1, 5)), np.array([0]))
        train_epoch(model, data, TrainConfig(model_kind=kind, rate_proto=0.1), 0.0,
                    np.random.default_rng(0))
        moved = (W != before).any(axis=1)
        assert moved.tolist() == [True, False, True, False]

    @pytest.mark.parametrize("kind", ["grlvq", "gmlvq"])
    def test_the_pre_step_metric_object_is_left_as_it_was(self, kind):
        # the step writes into fresh arrays only: the metric object a caller
        # holds from before the epoch keeps its parameters
        data = small_data(seed=53, n_dims=5)
        model = random_model(np.random.default_rng(53), kind, n_classes=2)
        met = model.metric
        before = met.params.copy()
        train_epoch(model, data, TrainConfig(model_kind=kind, rate_metric=0.05), 0.5,
                    np.random.default_rng(0))
        assert model.metric is not met
        assert not np.array_equal(model.metric.params, before)
        assert np.array_equal(met.params, before)

    @pytest.mark.parametrize("proto_labels, y, message", [
        # class 2 has no prototype; its one sample comes last in the data
        ([0, 1, 0, 1], [0, 1] * 15 + [2], "no prototype carries class 2"),
        ([1, 1], [1] * 31, "all prototypes carry class 1"),
    ])
    def test_uncovered_class_fails_before_any_prototype_moves(self, proto_labels, y, message):
        rng = np.random.default_rng(37)
        data = LabeledDataset(rng.normal(size=(31, 5)), np.array(y))
        model = LVQModel("grlvq", PrototypeSet(rng.normal(size=(len(proto_labels), 5)),
                                               np.array(proto_labels)),
                         RelevanceProfile.uniform(5))
        before_w, before_l = model.protos.vectors.copy(), model.metric.lam.copy()
        cfg = TrainConfig(model_kind="grlvq", rate_proto=0.1, rate_metric=0.1)
        for seed in range(5):  # whatever the order, the check comes first
            with pytest.raises(ValueError, match=message):
                train_epoch(model, data, cfg, 0.0, np.random.default_rng(seed))
            assert np.array_equal(model.protos.vectors, before_w)
            assert np.array_equal(model.metric.lam, before_l)

    @pytest.mark.parametrize("width, held_out", [(1, False), (4, False), (6, False), (4, True)],
                             ids=["1", "4", "6", "held-out-4"])
    def test_data_of_the_wrong_width_raises_dimension_mismatch(self, width, held_out):
        rng = np.random.default_rng(41)
        model = random_model(rng, "grlvq")  # 5 features
        data = LabeledDataset(rng.normal(size=(12, width)), np.repeat([0, 1, 2], 4))
        fit = LabeledDataset(rng.normal(size=(12, 5)), np.repeat([0, 1, 2], 4))
        train_data, test_data = (fit, data) if held_out else (data, None)
        before = model.protos.vectors.copy()
        with pytest.raises(ValueError, match=f"model has 5 features, data has {width}"):
            train_epoch(model, train_data, TrainConfig(), 0.0, np.random.default_rng(0),
                        test_data=test_data)
        assert np.array_equal(model.protos.vectors, before)

    def test_metric_of_the_wrong_width_raises_dimension_mismatch(self):
        model = random_model(np.random.default_rng(43), "grlvq")
        model.metric = RelevanceProfile.uniform(4)
        data = LabeledDataset(np.zeros((3, 5)), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="the metric has 4 dims, the prototypes 5"):
            train_epoch(model, data, TrainConfig(), 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_metric_of_the_wrong_class_raises_before_any_step(self, kind):
        rng = np.random.default_rng(45)
        model = random_model(rng, kind)
        model.metric = (RelevanceProfile.uniform(5) if kind == "gmlvq"
                        else OmegaMatrix(np.eye(5) / np.sqrt(5)))
        data = LabeledDataset(rng.normal(size=(6, 5)), np.array([0, 1, 2] * 2))
        before = model.protos.vectors.copy()
        with pytest.raises(ValueError, match=f"{kind} model must be a"):
            train_epoch(model, data, TrainConfig(model_kind=kind), 0.0, np.random.default_rng(0))
        assert np.array_equal(model.protos.vectors, before)

    def test_normalization_invariant_every_epoch(self):
        data = small_data(seed=19, n_dims=10, n_informative=4)
        for kind, rows in (("grlvq", 0), ("gmlvq", 4)):
            cfg = TrainConfig(model_kind=kind, epochs=5, omega_rows=rows, seed=7)
            rng = np.random.default_rng(cfg.seed)
            model = init_model(data, cfg, rng)
            devs = []
            for t in range(cfg.epochs):  # what train runs, checked after each epoch
                train_epoch(model, data, cfg, 0.3, rng, t)
                devs.append(abs(np.sum(model.metric.params**2) - 1.0))
            assert max(devs) <= 1e-10

    def test_lambda_stays_nonnegative(self):
        data = small_data(seed=23)
        cfg = TrainConfig(model_kind="grlvq", epochs=10, seed=3)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        for t in range(cfg.epochs):
            train_epoch(model, data, cfg, 1.0, rng, t)
        assert np.all(model.metric.lam >= 0.0)

    def test_near_singular_square_metric_warns(self, caplog):
        data = small_data(seed=27, n_dims=2, n_informative=2)
        cfg = TrainConfig(model_kind="gmlvq", epochs=1, omega_rows=2,
                          rate_metric=0.0, seed=1)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        bad = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        model.metric = OmegaMatrix(bad / np.linalg.norm(bad))
        with caplog.at_level("WARNING", logger="sparselvq.trainer"):
            train_epoch(model, data, cfg, 0.0, rng)
        assert any("determinant" in r.message for r in caplog.records)


class TestObjectiveDescent:
    def test_objective_non_increasing_over_ten_epoch_windows(self):
        reg_weight = 0.1
        hold = 0
        trials = 20

        def objective(model, data, cfg):
            return (dataset_cost(model, data, cfg.transfer)
                    + reg_weight * reg_term_of(model, cfg.alpha))

        for trial in range(trials):
            data = small_data(seed=100 + trial, n_dims=5, n_informative=2,
                              per_class=20)
            cfg = TrainConfig(model_kind="grlvq", epochs=10, rate_proto=1e-3,
                              rate_metric=1e-3, seed=trial)
            rng = np.random.default_rng(cfg.seed)
            model = init_model(data, cfg, rng)
            before = objective(model, data, cfg)
            for t in range(cfg.epochs):
                train_epoch(model, data, cfg, reg_weight, rng, t)
            after = objective(model, data, cfg)
            if after <= before:
                hold += 1
        assert hold >= 0.95 * trials


class TestDeterminism:
    def test_identical_seeds_identical_metrics(self):
        data = small_data(seed=29)
        cfg = TrainConfig(model_kind="grlvq", epochs=5, seed=21)

        def run():
            rng = np.random.default_rng(cfg.seed)
            model = init_model(data, cfg, rng)
            return [json.dumps(asdict(train_epoch(model, data, cfg, 0.2, rng, t)))
                    for t in range(cfg.epochs)]

        assert run() == run()


class TestRunPath:
    def test_single_zero_step_equals_plain_training(self):
        data = small_data(seed=31)
        cfg = TrainConfig(model_kind="grlvq", epochs=2, seed=9)

        rng_a = np.random.default_rng(cfg.seed)
        model_a = init_model(data, cfg, rng_a)
        metrics_a = train(model_a, data, replace(cfg, epochs=4), rng=rng_a)

        rng_b = np.random.default_rng(cfg.seed)
        model_b = init_model(data, cfg, rng_b)
        metrics_b = train(model_b, data, cfg, rng=rng_b)
        schedule = PathSchedule(0.0, 0.0, steps=1, epochs_per_step=2)
        pm, snaps = run_path(model_b, data, cfg, schedule, rng=rng_b)
        metrics_b.extend(pm)

        assert np.array_equal(model_a.protos.vectors, model_b.protos.vectors)
        assert np.array_equal(model_a.metric.lam, model_b.metric.lam)
        assert ([json.dumps(asdict(m)) for m in metrics_a]
                == [json.dumps(asdict(m)) for m in metrics_b])
        assert len(snaps) == 1

    def test_snapshots_are_independent_copies(self):
        data = small_data(seed=37)
        cfg = TrainConfig(model_kind="grlvq", epochs=1, seed=4)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        schedule = PathSchedule(0.0, 0.5, steps=3, epochs_per_step=1)
        _, snaps = run_path(model, data, cfg, schedule, rng=rng)
        assert len(snaps) == 3
        snaps[0].protos.vectors[:] = 0.0
        assert not np.array_equal(snaps[1].protos.vectors, snaps[0].protos.vectors)

    def test_monotone_regularization_pressure(self):
        data = synth_sparse(50, 5, 3, 40, 1.0, 41)
        tr, te = split(data, SplitSpec(0.7, seed=1))
        cfg = TrainConfig(model_kind="grlvq", epochs=20, seed=6)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(tr, cfg, rng)
        train(model, tr, cfg, test_data=te, rng=rng)
        schedule = PathSchedule(0.0, 2.0, steps=11, epochs_per_step=3)
        _, snaps = run_path(model, tr, cfg, schedule, test_data=te, rng=rng)
        norms = [np.abs(s.metric.lam).sum() for s in snaps]
        pairs = list(zip(norms, norms[1:]))
        ok = sum(b <= a + 1e-12 for a, b in pairs)
        assert ok >= 0.9 * len(pairs), f"l1 path not shrinking: {norms}"

    def test_large_reg_weight_completes(self):
        data = small_data(seed=43)
        cfg = TrainConfig(model_kind="grlvq", epochs=1, seed=8)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        schedule = PathSchedule(10.0, 12.0, steps=3, epochs_per_step=3)
        run_path(model, data, cfg, schedule, rng=rng)
        assert np.isclose(np.sum(model.metric.lam**2), 1.0, atol=1e-10)
        assert np.all(np.isfinite(model.metric.lam))


class TestConfigAndSchedule:
    def test_schedule_weights_linear(self):
        s = PathSchedule(0.0, 1.0, steps=5, epochs_per_step=1)
        assert np.allclose(s.weights(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_schedule_single_step_uses_start(self):
        s = PathSchedule(0.3, 0.9, steps=1, epochs_per_step=2)
        assert np.allclose(s.weights(), [0.3])

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PathSchedule(1.0, 0.5, steps=2, epochs_per_step=1)
        with pytest.raises(ValueError):
            PathSchedule(0.0, 1.0, steps=0, epochs_per_step=1)
        with pytest.raises(ValueError, match="reg_weight_start must be finite"):
            PathSchedule(float("nan"), 1.0)
        with pytest.raises(TypeError, match="steps must be an integer"):
            PathSchedule(0.0, 1.0, steps=2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(model_kind="lvq3")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(rate_proto=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=0.0)
        with pytest.raises(ValueError, match="rate_decay must be finite"):
            TrainConfig(rate_decay=float("inf"))
        with pytest.raises(ValueError, match="sparsity_threshold must be positive"):
            TrainConfig(sparsity_threshold=0.0)
        for count in ("epochs", "seed", "omega_rows", "protos_per_class"):
            with pytest.raises(TypeError, match=f"{count} must be an integer"):
                TrainConfig(**{count: True})
        assert TrainConfig(epochs=np.int64(3), seed=np.int64(1)).epochs == 3

    @pytest.mark.parametrize("kind", ["glvq", "grlvq"])
    def test_omega_rows_only_for_gmlvq(self, kind):
        with pytest.raises(ValueError, match=f"omega_rows applies only to gmlvq, not {kind}"):
            TrainConfig(model_kind=kind, omega_rows=5)
        assert TrainConfig(model_kind="gmlvq", omega_rows=5).omega_rows == 5


class TestModelSerialization:
    @pytest.mark.parametrize("kind,rows", [("glvq", 0), ("grlvq", 0), ("gmlvq", 3)])
    def test_json_round_trip(self, tmp_path, kind, rows):
        data = small_data(seed=47, n_dims=8, n_informative=3)
        cfg = TrainConfig(model_kind=kind, epochs=2, omega_rows=rows, seed=12)
        rng = np.random.default_rng(cfg.seed)
        model = init_model(data, cfg, rng)
        for t in range(cfg.epochs):
            train_epoch(model, data, cfg, 0.1, rng, t)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert np.array_equal(loaded.protos.vectors, model.protos.vectors)
        if kind == "glvq":  # trained with rate_metric > 0, still uniform, not written out
            assert cfg.rate_metric > 0
            assert np.array_equal(model.metric.lam, RelevanceProfile.uniform(8).lam)
            assert json.loads(path.read_text())["lambda"] is None
        if kind != "gmlvq":
            assert np.array_equal(loaded.metric.lam, model.metric.lam)
        if kind == "gmlvq":
            assert np.array_equal(loaded.metric.omega, model.metric.omega)
        assert evaluate(loaded, data) == evaluate(model, data)


class TestModelCopy:
    @pytest.mark.parametrize("kind", KINDS)
    def test_copy_shares_no_array(self, kind):
        model = random_model(np.random.default_rng(89), kind)
        model.label_names = ["a", "b", "c"]
        dup = model.copy()
        before = json.dumps(model.to_json_dict())
        assert json.dumps(dup.to_json_dict()) == before
        assert type(dup.metric) is type(model.metric)
        for a, b in ((dup.protos.vectors, model.protos.vectors),
                     (dup.protos.labels, model.protos.labels),
                     (dup.metric.params, model.metric.params)):
            assert not np.shares_memory(a, b)
        assert dup.label_names is not model.label_names

        model.protos.vectors += 1.0
        model.protos.labels[0] = 2
        model.metric.params[...] = 0.5
        model.metric = model.metric.stepped(model.metric.params)
        model.label_names.append("d")
        assert json.dumps(dup.to_json_dict()) == before

    def test_glvq_copy_keeps_the_uniform_profile(self):
        model = random_model(np.random.default_rng(97), "glvq")
        assert np.array_equal(model.copy().metric.lam, RelevanceProfile.uniform(5).lam)


class TestModelValidation:
    @staticmethod
    def model_dict(kind):
        model = random_model(np.random.default_rng(83), kind, n_classes=2, protos_per_class=1)
        model.label_names = ["a", "b"]
        return json.loads(json.dumps(model.to_json_dict()))

    CASES = {
        "unknown-kind": ("glvq", lambda d: d.update(kind="lvq3")),
        "grlvq-without-lambda": ("grlvq", lambda d: d.update({"lambda": None})),
        "glvq-with-lambda": ("glvq", lambda d: d.update({"lambda": [0.2] * 5})),
        "gmlvq-without-omega": ("gmlvq", lambda d: d.update(omega=None)),
        "grlvq-with-omega": ("grlvq", lambda d: d.update(omega=[[0.2] * 5])),
        "lambda-length": ("grlvq", lambda d: d["lambda"].pop()),
        "omega-columns": ("gmlvq", lambda d: [row.pop() for row in d["omega"]]),
        "omega-rows-gt-columns": ("gmlvq", lambda d: d.update(omega=[[0.1] * 5] * 6)),
        "vector-length": ("glvq", lambda d: d.update(n_features=4)),
        "labels-vs-vectors": ("glvq", lambda d: d["protos"]["labels"].pop()),
        "label-without-a-name": ("glvq", lambda d: d.update(label_names=["a"])),
        "integer-label-names": ("glvq", lambda d: d.update(label_names=[0, 1])),
        "repeated-label-names": ("glvq", lambda d: d.update(label_names=["a", "a"])),
        "negative-label": ("glvq", lambda d: d["protos"]["labels"].__setitem__(0, -1)),
        "non-finite-vector": ("glvq", lambda d: d["protos"]["vectors"][0].__setitem__(0, float("nan"))),
        "non-finite-lambda": ("grlvq", lambda d: d["lambda"].__setitem__(0, float("inf"))),
        "non-finite-omega": ("gmlvq", lambda d: d["omega"][0].__setitem__(0, float("nan"))),
        "missing-protos": ("glvq", lambda d: d.pop("protos")),
        "protos-not-an-object": ("glvq", lambda d: d.update(protos=[1, 2])),
        # entry types: labels must be JSON integers, the rest JSON numbers; none is converted
        "float-labels": ("glvq", lambda d: d["protos"].update(labels=[0.7, 1.2])),
        "bool-labels": ("glvq", lambda d: d["protos"].update(labels=[False, True])),
        "label-beyond-int64": ("glvq", lambda d: d["protos"]["labels"].__setitem__(1, 2**64)),
        "string-vector": ("glvq", lambda d: d["protos"]["vectors"][0].__setitem__(0, "0.5")),
        "bool-vector": ("glvq", lambda d: d["protos"]["vectors"][1].__setitem__(2, True)),
        "string-lambda": ("grlvq", lambda d: d.update({"lambda": [str(x) for x in d["lambda"]]})),
        "bool-lambda": ("grlvq", lambda d: d["lambda"].__setitem__(0, True)),
        "string-omega": ("gmlvq", lambda d: d["omega"][0].__setitem__(1, "0.1")),
        "bool-omega": ("gmlvq", lambda d: d["omega"][2].__setitem__(0, False)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_model_json_is_rejected(self, tmp_path, case):
        kind, edit = self.CASES[case]
        d = self.model_dict(kind)
        edit(d)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError):
            load_model(path)

    # the constructors check a model built in memory as load_model checks a file
    IN_MEMORY = {
        "unknown-kind": (lambda: LVQModel("lvq3", PrototypeSet(np.zeros((2, 5)), [0, 1]),
                                          RelevanceProfile.uniform(5)), "model kind"),
        "negative-label": (lambda: PrototypeSet(np.zeros((2, 5)), [-1, 1]), "nonnegative"),
        "no-prototypes": (lambda: PrototypeSet(np.zeros((0, 5)), []), "nonempty"),
        "label-without-a-name": (lambda: LVQModel("glvq", PrototypeSet(np.zeros((2, 5)), [0, 1]),
                                                  label_names=["a"]), "label_names"),
        "label-names-not-a-list": (lambda: LVQModel("glvq", PrototypeSet(np.zeros((2, 5)), [0, 1]),
                                                    label_names="ab"), "label_names"),
        "label-names-not-strings": (lambda: LVQModel("glvq", PrototypeSet(np.zeros((2, 5)), [0, 1]),
                                                     label_names=[0, 1]), "label_names"),
        "label-names-repeated": (lambda: LVQModel("glvq", PrototypeSet(np.zeros((2, 5)), [0, 1]),
                                                  label_names=["0", "0"]), "label_names"),
        "omega-without-rows": (lambda: OmegaMatrix(np.zeros((0, 5))), "1 <= rows"),
        "omega-rows-beyond-the-data": (lambda: init_model(small_data(seed=3, n_dims=4),
                                                          TrainConfig("gmlvq", omega_rows=5)),
                                       "1 <= rows"),
        "one-class-training-data": (lambda: init_model(small_data(classes=2).subset(np.arange(20)),
                                                       TrainConfig()), "at least two classes"),
        "non-finite-vector": (lambda: LVQModel("glvq", PrototypeSet([[0.0, np.nan], [1.0, 1.0]],
                                                                    [0, 1])), "must be finite"),
        "non-finite-lambda": (lambda: LVQModel("grlvq", PrototypeSet(np.eye(2), [0, 1]),
                                               RelevanceProfile([np.nan, 1.0])), "must be finite"),
        "non-finite-omega": (lambda: LVQModel("gmlvq", PrototypeSet(np.eye(2), [0, 1]),
                                              OmegaMatrix([[1.0, np.inf]])), "must be finite"),
        # a glvq model file carries no profile: glvq-with-lambda is its file counterpart
        "glvq-non-uniform-profile": (lambda: LVQModel("glvq", PrototypeSet(np.eye(2), [0, 1]),
                                                      RelevanceProfile([1.0, 0.0])), "uniform"),
    }

    @pytest.mark.parametrize("case", list(IN_MEMORY))
    def test_bad_model_in_memory_is_rejected(self, case):
        build, message = self.IN_MEMORY[case]
        with pytest.raises(ValueError, match=message):
            build()

    def test_training_data_without_a_named_class_is_refused_by_name(self):
        # a split can leave out the highest class, which labels.max() + 1 would not count
        synth = synth_sparse(4, 2, 3, 2, 1.0, 1)
        data = LabeledDataset(synth.features, synth.labels, label_names=["a", "b", "c"])
        train_set, _ = split(data, SplitSpec(0.5, stratified=False, seed=4))
        assert train_set.labels.tolist() == [0, 0, 1]
        with pytest.raises(ValueError, match=r"no samples of class 2 \('c'\)"):
            init_model(train_set, TrainConfig(epochs=2, seed=4))
        model = init_model(data, TrainConfig(epochs=2, seed=4))
        assert model.protos.labels.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_metric_width_differs_from_the_prototypes(self, kind):
        protos = PrototypeSet(np.zeros((2, 5)), [0, 1])
        met = OmegaMatrix(np.eye(4)) if kind == "gmlvq" else RelevanceProfile.uniform(4)
        with pytest.raises(ValueError, match="the metric has 4 dims, the prototypes 5"):
            LVQModel(kind, protos, met)

    def test_grlvq_without_a_profile(self):
        protos = PrototypeSet(np.zeros((2, 5)), [0, 1])
        for kind, met in (("grlvq", None), ("grlvq", OmegaMatrix(np.eye(5))),
                          ("glvq", OmegaMatrix(np.eye(5)))):
            with pytest.raises(ValueError, match=f"{kind} model must be a RelevanceProfile"):
                LVQModel(kind, protos, met)

    def test_gmlvq_without_a_projection(self):
        protos = PrototypeSet(np.zeros((2, 5)), [0, 1])
        for met in (None, RelevanceProfile.uniform(5)):
            with pytest.raises(ValueError, match="must be a OmegaMatrix"):
                LVQModel("gmlvq", protos, met)

    @pytest.mark.parametrize("kind", KINDS)
    def test_valid_model_json_loads(self, kind):
        d = self.model_dict(kind)
        assert LVQModel.from_json_dict(d).to_json_dict() == d

    def test_each_kind_predicts_the_same_after_a_file_round_trip(self):
        # with profile [1, 0] a glvq model would predict [1, 0] on these rows,
        # and [0, 1] once saved, as its file implies the uniform profile
        protos = PrototypeSet([[0.0, 0.0], [1.0, 2.0]], [0, 1])
        assert predict(LVQModel("glvq", protos), np.array([[0.9, 0.0], [0.2, 2.0]])).tolist() == [0, 1]
        with pytest.raises(ValueError, match="uniform"):
            LVQModel("glvq", protos, RelevanceProfile([1.0, 0.0]))
        rng = np.random.default_rng(107)
        for kind in KINDS:
            model = random_model(rng, kind)
            X = rng.normal(size=(50, 5))
            loaded = LVQModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
            assert np.array_equal(predict(loaded, X), predict(model, X))


class TestConfusion:
    def test_counts_sum_to_samples(self):
        rng = np.random.default_rng(53)
        data = small_data(seed=53, classes=2)
        model = random_model(rng, "glvq", n=6, n_classes=2)
        conf = confusion_matrix(model, data, predict(model, data.features))
        assert conf.sum() == data.n_samples
        acc = np.trace(conf) / conf.sum()
        assert acc == pytest.approx(evaluate(model, data))
