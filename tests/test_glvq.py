import numpy as np
import pytest

from sparselvq.dataset import LabeledDataset
from sparselvq.glvq import (
    PrototypeSet,
    TransferFn,
    class_index_table,
    classifier_mu,
    init_prototypes,
    winners_from_distances,
    xi_factors,
)
from sparselvq.metric import RelevanceProfile
from sparselvq.trainer import LVQModel, TrainConfig, _dists_to_protos, dataset_cost, train_epoch

IDENTITY = TransferFn()


def euclid_model(protos):
    """Unit relevances: the model's distance is plain squared Euclidean."""
    return LVQModel("grlvq", protos, RelevanceProfile(np.ones(protos.n_features)))


def search(dists, proto_labels, label):
    """Winner search through the per-class table, as a training pass builds it."""
    return winners_from_distances(dists, *class_index_table(proto_labels, [label])[label])


def winners(sample, label, protos):
    """Winner search as the SGD step runs it, under squared Euclidean distance."""
    return search(_dists_to_protos(euclid_model(protos), sample)[1], protos.labels, label)


def random_setup(rng, n=4, n_protos=5, n_classes=3):
    protos = PrototypeSet(
        rng.normal(size=(n_protos, n)),
        rng.integers(0, n_classes, size=n_protos),
    )
    # make sure both required groups exist
    protos.labels[0] = 0
    protos.labels[1] = 1
    sample = rng.normal(size=n)
    return sample, protos


class TestFindWinners:
    def test_coincident_sample(self):
        protos = PrototypeSet(np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([0, 1]))
        win = winners(np.zeros(2), 0, protos)
        assert win.idx_plus == 0 and win.d_plus == 0.0
        assert win.idx_minus == 1

    def test_two_prototypes_forced_by_labels(self):
        protos = PrototypeSet(np.array([[0.0], [1.0]]), np.array([0, 1]))
        win = winners(np.array([0.9]), 1, protos)
        assert (win.idx_plus, win.idx_minus) == (1, 0)
        win = winners(np.array([0.9]), 0, protos)
        assert (win.idx_plus, win.idx_minus) == (0, 1)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sample, protos = random_setup(rng)
            label = int(rng.integers(0, 2))
            win = winners(sample, label, protos)
            # independent exhaustive oracle
            best_p, best_m = None, None
            for k in range(protos.n_protos):
                d = float(np.sum((sample - protos.vectors[k]) ** 2))
                if protos.labels[k] == label:
                    if best_p is None or d < best_p[1]:
                        best_p = (k, d)
                elif best_m is None or d < best_m[1]:
                    best_m = (k, d)
            assert (win.idx_plus, win.idx_minus) == (best_p[0], best_m[0])
            assert win.d_plus == pytest.approx(best_p[1], rel=1e-12)
            assert win.d_minus == pytest.approx(best_m[1], rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        d = np.array([1.0, 1.0, 0.5, 0.5])
        labels = np.array([0, 0, 1, 1])
        win = search(d, labels, 0)
        assert (win.idx_plus, win.idx_minus) == (0, 2)

    def test_missing_class_errors(self):
        protos = PrototypeSet(np.zeros((2, 2)), np.array([1, 1]))
        with pytest.raises(ValueError, match="no prototype carries class 0"):
            winners(np.zeros(2), 0, protos)
        with pytest.raises(ValueError, match="all prototypes carry class 1"):
            winners(np.zeros(2), 1, protos)


class TestClassIndexTable:
    def test_ascending_groups_for_each_class_in_the_data(self):
        table = class_index_table(np.array([1, 0, 1, 2]), np.array([2, 1, 1, 2]))
        assert sorted(table) == [1, 2]
        same, other = table[1]
        assert same.tolist() == [0, 2] and other.tolist() == [1, 3]
        same, other = table[2]
        assert same.tolist() == [3] and other.tolist() == [0, 1, 2]

    def test_a_class_only_in_the_data_errors(self):
        with pytest.raises(ValueError, match="no prototype carries class 2"):
            class_index_table(np.array([0, 1]), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="all prototypes carry class 0"):
            class_index_table(np.array([0, 0]), np.array([0]))


class TestClassifierMu:
    def test_symmetry(self):
        assert classifier_mu(1.0, 1.0) == 0.0

    def test_perfect_hit(self):
        assert classifier_mu(0.0, 2.0) == -1.0

    def test_direct_value(self):
        assert classifier_mu(3.0, 1.0) == pytest.approx(0.5)

    def test_undecided_tie(self):
        assert classifier_mu(0.0, 0.0) == 0.0

    def test_arrays_give_the_scalar_call_at_each_element(self):
        # the epoch cost scores its whole winner table in one call, the tie included
        d_plus = np.array([0.0, 0.0, 3.0, 1.0, 2.5, 1e-300])
        d_minus = np.array([0.0, 2.0, 1.0, 1.0, 0.0, 1e-300])
        with np.errstate(all="raise"):
            mu = classifier_mu(d_plus, d_minus)
        want = [classifier_mu(dp, dm) for dp, dm in zip(d_plus.tolist(), d_minus.tolist())]
        assert mu.tolist() == want

    def test_range_and_sign(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            dp, dm = rng.uniform(0, 10, size=2)
            mu = classifier_mu(dp, dm)
            assert -1.0 <= mu <= 1.0
            if dp != dm:
                assert (mu < 0) == (dp < dm)


class TestCost:
    def test_empty_dataset(self):
        data = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        protos = PrototypeSet(np.zeros((2, 2)), np.array([0, 1]))
        assert dataset_cost(euclid_model(protos), data, IDENTITY) == 0.0

    def test_a_class_no_prototype_carries_errors(self):
        protos = PrototypeSet(np.array([[0.0, 0.0], [3.0, 3.0]]), np.array([0, 1]))
        data = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 3]))
        with pytest.raises(ValueError, match="no prototype carries class 3"):
            dataset_cost(euclid_model(protos), data, IDENTITY)

    def test_single_perfect_sample(self):
        protos = PrototypeSet(np.array([[0.0, 0.0], [3.0, 3.0]]), np.array([0, 1]))
        data = LabeledDataset(np.array([[0.0, 0.0]]), np.array([0]))
        assert dataset_cost(euclid_model(protos), data, IDENTITY) == pytest.approx(-0.5)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        protos = PrototypeSet(rng.normal(size=(4, 3)), np.array([0, 0, 1, 1]))
        data = LabeledDataset(X, y)
        expected = 0.0
        for v, c in zip(X, y):
            dists = [float(np.sum((v - w) ** 2)) for w in protos.vectors]
            dp = min(d for d, l in zip(dists, protos.labels) if l == c)
            dm = min(d for d, l in zip(dists, protos.labels) if l != c)
            expected += (dp - dm) / (dp + dm)
        assert dataset_cost(euclid_model(protos), data, IDENTITY) == pytest.approx(
            0.5 * expected)


class TestXiFactors:
    def test_unit_distances(self):
        xp, xm = xi_factors(1.0, 1.0, IDENTITY)
        assert xp == pytest.approx(0.5)
        assert xm == pytest.approx(-0.5)

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_distances_whose_sum_squared_leaves_the_float_range(self, scale):
        # (d+ + d-)**2 underflows to 0 or overflows; at d+ = d- = s, xi = ±1 / (2s)
        xp, xm = xi_factors(scale, scale, IDENTITY)
        assert xp == pytest.approx(0.5 / scale) and xm == pytest.approx(-0.5 / scale)

    def test_zero_d_plus_kills_xi_minus(self):
        xp, xm = xi_factors(0.0, 2.0, IDENTITY)
        assert xm == 0.0
        assert xp > 0.0

    @pytest.mark.parametrize("f", [IDENTITY, TransferFn("sigmoid", 2.0)])
    def test_matches_fd_of_transfer_of_mu(self, f):
        # xi± are the derivatives of f(mu(d+, d-)) w.r.t. the distances
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(100):
            dp, dm = rng.uniform(0.1, 5.0, size=2)

            def loss(dpp, dmm):
                return float(f.value(classifier_mu(dpp, dmm)))

            fd_p = (loss(dp + h, dm) - loss(dp - h, dm)) / (2 * h)
            fd_m = (loss(dp, dm + h) - loss(dp, dm - h)) / (2 * h)
            xp, xm = xi_factors(dp, dm, f)
            assert xp == pytest.approx(fd_p, rel=1e-4, abs=1e-8)
            assert xm == pytest.approx(fd_m, rel=1e-4, abs=1e-8)
            assert xp >= 0.0 and xm <= 0.0


class TestUpdatePrototypes:
    def _step(self, sample, label, protos, rate):
        """The production step: a one-row train_epoch of a glvq model, in place."""
        data = LabeledDataset(sample[np.newaxis], np.array([label]))
        train_epoch(LVQModel("glvq", protos), data,
                    TrainConfig(model_kind="glvq", rate_proto=rate), 0.0,
                    np.random.default_rng(0))

    def test_zero_rate_keeps_prototypes(self):
        rng = np.random.default_rng(4)
        sample, protos = random_setup(rng)
        before = protos.vectors.copy()
        self._step(sample, 0, protos, 0.0)
        assert np.array_equal(protos.vectors, before)

    def test_coincident_winner_does_not_move(self):
        protos = PrototypeSet(np.array([[1.0, 1.0], [3.0, 0.0]]), np.array([0, 1]))
        self._step(np.array([1.0, 1.0]), 0, protos, 0.1)
        assert np.array_equal(protos.vectors[0], [1.0, 1.0])

    def test_cost_decreases_on_two_point_problem(self):
        protos = PrototypeSet(np.array([[0.5, 0.0], [1.5, 0.0]]), np.array([0, 1]))
        data = LabeledDataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 1]))
        before = dataset_cost(euclid_model(protos), data, IDENTITY)
        self._step(data.features[0], 0, protos, 1e-3)
        after = dataset_cost(euclid_model(protos), data, IDENTITY)
        assert after < before

    def test_touches_exactly_two_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sample, protos = random_setup(rng)
            before = protos.vectors.copy()
            win = winners(sample, 0, protos)
            self._step(sample, 0, protos, 0.05)
            changed = {
                i for i in range(protos.n_protos)
                if not np.array_equal(before[i], protos.vectors[i])
            }
            assert changed <= {win.idx_plus, win.idx_minus}
            assert len(changed) == 2 or win.d_plus == 0.0 or win.d_minus == 0.0


class TestPrototypeGradientInvariant:
    def test_half_f_mu_derivative_matches_fd(self):
        # d(0.5 * f(mu)) / d(prototype coords) via xi is 0.5*xi*(-2)(v - w),
        # compared against central differences of the re-evaluated loss
        rng = np.random.default_rng(6)
        h = 1e-6
        checked = 0
        while checked < 100:
            sample, protos = random_setup(rng)
            label = int(rng.integers(0, 2))
            dists = np.sum((sample - protos.vectors) ** 2, axis=1)
            win = search(dists, protos.labels, label)
            same = np.sort(dists[protos.labels == label])
            other = np.sort(dists[protos.labels != label])
            # skip configurations where an FD nudge could flip the winner
            if (len(same) > 1 and same[1] - same[0] < 1e-3) or \
               (len(other) > 1 and other[1] - other[0] < 1e-3):
                continue
            xp, xm = xi_factors(win.d_plus, win.d_minus, IDENTITY)
            analytic = np.zeros_like(protos.vectors)
            analytic[win.idx_plus] = 0.5 * xp * (-2.0) * (sample - protos.vectors[win.idx_plus])
            analytic[win.idx_minus] = 0.5 * xm * (-2.0) * (sample - protos.vectors[win.idx_minus])

            def loss(flat):
                W = flat.reshape(protos.vectors.shape)
                w = search(np.sum((sample - W) ** 2, axis=1), protos.labels, label)
                return 0.5 * classifier_mu(w.d_plus, w.d_minus)

            fd = np.zeros(protos.vectors.size)
            flat = protos.vectors.ravel().copy()
            for i in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (loss(up) - loss(dn)) / (2 * h)
            np.testing.assert_allclose(
                analytic.ravel(), fd, rtol=1e-4, atol=1e-8,
                err_msg="prototype gradient vs finite differences",
            )
            checked += 1


class TestTransferFn:
    def test_identity(self):
        assert IDENTITY.value(0.3) == 0.3
        assert IDENTITY.deriv(0.3) == 1.0

    def test_sigmoid_monotone_with_finite_deriv(self):
        f = TransferFn("sigmoid", 3.0)
        xs = np.linspace(-1, 1, 51)
        vals = f.value(xs)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.isfinite(f.deriv(xs)))

    def test_sigmoid_deriv_matches_fd(self):
        f = TransferFn("sigmoid", 2.5)
        h = 1e-6
        for x in np.linspace(-0.9, 0.9, 7):
            fd = (f.value(x + h) - f.value(x - h)) / (2 * h)
            assert float(f.deriv(x)) == pytest.approx(fd, rel=1e-6)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TransferFn("softmax")

    @pytest.mark.parametrize("slope", [2.5, 0.0, float("nan")])
    def test_identity_takes_no_slope(self, slope):
        with pytest.raises(ValueError, match="identity transfer takes no slope"):
            TransferFn("identity", slope)
        assert TransferFn("identity", 1.0) == IDENTITY

    @pytest.mark.parametrize("kind,slope", [("sigmoid", True), ("identity", True),
                                            ("sigmoid", "2.5"), ("sigmoid", None)])
    def test_slope_must_be_a_number(self, kind, slope):
        with pytest.raises(TypeError, match="slope must be a number"):
            TransferFn(kind, slope)

    @pytest.mark.parametrize("slope,message", [
        (0.0, "sigmoid slope must be positive"),
        (-1.0, "slope must be finite and >= 0"),
        (float("inf"), "slope must be finite and >= 0"),
        (float("nan"), "slope must be finite and >= 0"),
    ])
    def test_sigmoid_slope_must_be_positive_and_finite(self, slope, message):
        with pytest.raises(ValueError, match=message):
            TransferFn("sigmoid", slope)
        assert TransferFn("sigmoid", 2).slope == 2


class TestInitPrototypes:
    def test_means_plus_jitter(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0], [6.0, 8.0]])
        y = np.array([0, 0, 1, 1])
        protos = init_prototypes(LabeledDataset(X, y), 2, np.random.default_rng(3))
        # one normal draw per prototype, in prototype order, scaled by 1 % of the std
        rng = np.random.default_rng(3)
        expected = [mean + 0.01 * X.std(axis=0) * rng.standard_normal(2)
                    for mean in ([1.0, 1.0], [5.0, 6.0]) for _ in range(2)]
        assert np.array_equal(protos.vectors, expected)
        assert np.array_equal(protos.labels, [0, 0, 1, 1])

    def test_per_class_count(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = np.repeat([0, 1, 2], 10)
        protos = init_prototypes(LabeledDataset(X, y), per_class=2, rng=rng)
        assert protos.n_protos == 6
        assert np.array_equal(protos.labels, [0, 0, 1, 1, 2, 2])
