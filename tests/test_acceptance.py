"""End-to-end acceptance gates for the package.

Each test is one hard criterion with a pinned tolerance and prints a
single PASS line on success (always visible; failures surface through
pytest). The training experiments run on synthetic data with known
informative dimensions because the hyperspectral application data the
method targets is not publicly available.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sparselvq import trainer
from sparselvq.cli import main as cli_main
from sparselvq.dataset import LabeledDataset, SplitSpec, save_csv, split, synth_sparse
from sparselvq.glvq import (
    PrototypeSet,
    TransferFn,
    class_index_table,
    classifier_mu,
    winners_from_distances,
    xi_factors,
)
from sparselvq.l1smooth import (
    abs_smooth,
    abs_smooth_grad,
    matrix_l1_smooth,
    matrix_l1_smooth_grad,
    sandwich_check,
)
from sparselvq.metric import OmegaMatrix, RelevanceProfile
from sparselvq.trainer import (
    PathSchedule,
    TrainConfig,
    init_model,
    run_path,
    sparsity_of,
    train,
    train_epoch,
)

from fdcheck import assert_grad_close, central_diff, central_diff_matrix

IDENTITY = TransferFn()

N_DIMS = 200
N_INFORMATIVE = 10
N_CLASSES = 5
PER_CLASS = 200
SEED = 7


def _report(line: str) -> None:
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def acceptance_splits():
    data = synth_sparse(N_DIMS, N_INFORMATIVE, N_CLASSES, PER_CLASS,
                        noise_sigma=1.0, seed=SEED)
    return split(data, SplitSpec(0.7, stratified=True, seed=SEED))


@pytest.fixture(scope="module")
def grlvq_run(acceptance_splits):
    """Pretrain GRLVQ, then ramp the penalty over 20 steps; shared result."""
    tr, te = acceptance_splits
    cfg = TrainConfig(model_kind="grlvq", epochs=60, seed=SEED)
    rng = np.random.default_rng(cfg.seed)
    started = time.perf_counter()
    model = init_model(tr, cfg, rng)
    pre = train(model, tr, cfg, test_data=te, rng=rng)
    schedule = PathSchedule(0.0, 1.0, steps=20, epochs_per_step=10)
    path_metrics, snapshots = run_path(model, tr, cfg, schedule, test_data=te, rng=rng)
    elapsed = time.perf_counter() - started
    return {
        "model": model,
        "pretrain_test_accuracy": pre[-1].test_accuracy,
        "path_metrics": path_metrics,
        "snapshots": snapshots,
        "schedule": schedule,
        "elapsed": elapsed,
    }


def test_synthetic_validation_statement():
    """The README states plainly that the original application data is
    unavailable and validation is synthetic/property based."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "not publicly available" in readme
    assert "synthetic" in readme
    _report("ACCEPTANCE PASS: original-data results declared non-reproducible; "
            "validation is synthetic and property based")


def test_gradient_oracle_suite():
    """All analytic gradients match central finite differences (h=1e-6)
    within relative 1e-4 on >= 100 random instances each, in under 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    h = 1e-6

    # winner-distance factors applied to the metric gradient, against the
    # re-evaluated per-sample score f(mu)
    checked = 0
    while checked < 100:
        n, n_protos = 4, 5
        protos = PrototypeSet(rng.normal(size=(n_protos, n)),
                              rng.integers(0, 2, size=n_protos))
        protos.labels[:2] = [0, 1]
        sample = rng.normal(size=n)
        label = int(rng.integers(0, 2))
        dists = np.sum((sample - protos.vectors) ** 2, axis=1)
        for group in (dists[protos.labels == label], dists[protos.labels != label]):
            srt = np.sort(group)
            if len(srt) > 1 and srt[1] - srt[0] < 1e-3:
                break
        else:
            groups = class_index_table(protos.labels, [label])[label]
            win = winners_from_distances(dists, *groups)
            xp, xm = xi_factors(win.d_plus, win.d_minus, IDENTITY)
            analytic = np.zeros_like(protos.vectors)
            analytic[win.idx_plus] = xp * (-2.0) * (sample - protos.vectors[win.idx_plus])
            analytic[win.idx_minus] = xm * (-2.0) * (sample - protos.vectors[win.idx_minus])

            def score(flat):
                W = flat.reshape(protos.vectors.shape)
                w = winners_from_distances(np.sum((sample - W) ** 2, axis=1), *groups)
                return classifier_mu(w.d_plus, w.d_minus)

            fd = central_diff(score, protos.vectors.ravel(), h).reshape(analytic.shape)
            assert_grad_close(analytic, fd, rtol=1e-4, label="prototype")
            checked += 1

    # the metric gradients take the step's two-row winner block: the second
    # row, at zero difference, adds exact zeros
    for _ in range(100):  # profile-weighted metric, both gradient routes
        n = int(rng.integers(2, 8))
        v, w = rng.normal(size=n), rng.normal(size=n)
        lam = rng.uniform(0.05, 1.5, size=n)
        rel = RelevanceProfile(lam)
        G, g = rel.winner_grads(np.stack([v - w, 0 * v]), (1.0, 1.0))
        fd = central_diff(lambda l: RelevanceProfile(l).dist(v, w), lam, h)
        assert_grad_close(g, fd, rtol=1e-4, label="lambda")
        fd = central_diff(lambda ww: rel.dist(v, ww), w, h)
        assert_grad_close(G[0], fd, rtol=1e-4, label="proto-lambda")

    for _ in range(100):  # projected metric, both gradient routes
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        v, w = rng.normal(size=n), rng.normal(size=n)
        om = OmegaMatrix(rng.normal(size=(m, n)))
        G, g = om.winner_grads(np.stack([v - w, 0 * v]), (1.0, 1.0))
        fd = central_diff_matrix(lambda o: OmegaMatrix(o).dist(v, w), om.omega, h)
        assert_grad_close(g, fd, rtol=1e-4, label="omega")
        fd = central_diff(lambda ww: om.dist(v, ww), w, h)
        assert_grad_close(G[0], fd, rtol=1e-4, label="proto-omega")

    for _ in range(100):  # smooth absolute value
        x = float(rng.uniform(-3, 3))
        alpha = float(rng.uniform(0.5, 20.0))
        fd = (abs_smooth(x + h, alpha) - abs_smooth(x - h, alpha)) / (2 * h)
        assert abs(float(abs_smooth_grad(x, alpha)) - fd) <= 1e-8 + 1e-4 * abs(fd)

    for _ in range(100):  # smooth matrix norm fold
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        mat = rng.normal(scale=0.8, size=(m, n))
        fd = central_diff_matrix(lambda o: matrix_l1_smooth(o, 5.0), mat, h)
        assert_grad_close(matrix_l1_smooth_grad(mat, 5.0), fd, rtol=1e-4,
                          label="matrix fold")

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient oracle suite took {elapsed:.1f} s"
    _report(f"ACCEPTANCE PASS: gradient oracle suite "
            f"(5 gradient families x 100 instances, {elapsed:.1f} s)")


def test_absolute_value_approximation_bound():
    """0 <= |x|_a - |x| <= 2 ln2 / a for a in {1, 5, 50}; exact value at 0."""
    rng = np.random.default_rng(202)
    for alpha in (1.0, 5.0, 50.0):
        x = rng.uniform(-100.0, 100.0, size=10_000)
        diff = np.asarray(abs_smooth(x, alpha)) - np.abs(x)
        bound = 2.0 * math.log(2.0) / alpha
        assert np.all(diff >= 0.0), f"alpha={alpha}: underestimate at {x[diff < 0][:3]}"
        assert np.all(diff <= bound), f"alpha={alpha}: bound exceeded at {x[diff > bound][:3]}"
        assert abs(float(abs_smooth(0.0, alpha)) - math.log(4.0) / alpha) <= 1e-12
    _report("ACCEPTANCE PASS: smooth |x| overestimates by at most 2 ln2/alpha "
            "(3 alphas x 10000 points, exact at x=0)")


def test_norm_sandwich_property():
    """|O|_1^2/m <= |O^T O|_1 <= n |O|_1^2 over 1000 random matrices."""
    rng = np.random.default_rng(303)
    for i in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        mat = rng.normal(scale=rng.uniform(0.05, 4.0), size=(m, n))
        res = sandwich_check(mat)
        assert res.holds, (
            f"sandwich violated at trial {i}: lower={res.lower!r} "
            f"middle={res.middle!r} upper={res.upper!r}\nmatrix=\n{mat!r}"
        )
    _report("ACCEPTANCE PASS: norm sandwich holds on 1000 random matrices (m <= n <= 8)")


def test_sparse_recovery_experiment(grlvq_run):
    """Desk-scale recovery at the default metric rate: pretrained GRLVQ
    stays accurate and ends with nearly all relevance mass on the true
    informative dimensions. Relevance learning alone, at weight 0, already
    zeroes the noise dimensions in this setting during pretraining, so the
    gate shows what the whole run reaches, not what the penalty adds;
    `test_penalty_earns_its_sparsity` isolates the penalty."""
    pre_acc = grlvq_run["pretrain_test_accuracy"]
    assert pre_acc >= 0.90, f"pretraining reached only {pre_acc:.3f}"

    model = grlvq_run["model"]
    final_sparsity = sparsity_of(model.metric.lam, 1e-4)
    assert final_sparsity >= 0.85, f"final sparsity {final_sparsity:.3f}"

    mass_on_true = float(np.sum(model.metric.lam[:N_INFORMATIVE] ** 2))
    assert mass_on_true >= 0.80, f"only {mass_on_true:.3f} of the mass is on true dims"

    schedule = grlvq_run["schedule"]
    step_end = grlvq_run["path_metrics"][schedule.epochs_per_step - 1::schedule.epochs_per_step]
    crossing = next(m for m in step_end if m.sparsity > 0.8)
    assert crossing.test_accuracy >= pre_acc - 0.05, (
        f"accuracy {crossing.test_accuracy:.3f} at the sparsity-0.8 crossing "
        f"vs pretrained {pre_acc:.3f}"
    )

    # reaching this point means no NonFiniteUpdate was raised
    elapsed = grlvq_run["elapsed"]
    assert elapsed < 300.0, f"experiment took {elapsed:.0f} s"
    _report(
        "ACCEPTANCE PASS: sparse recovery "
        f"(pretrain acc {pre_acc:.3f}, final sparsity {final_sparsity:.3f}, "
        f"true-dim mass {mass_on_true:.3f}, crossing acc {crossing.test_accuracy:.3f}, "
        f"{elapsed:.0f} s)"
    )


def test_penalty_earns_its_sparsity(acceptance_splits):
    """At a metric rate where relevance learning alone keeps every
    dimension, the ramp to weight 1 sparsifies and the weight-0 control
    does not. Both continue one 20-epoch pretraining from the same model
    and rng state. Measured at seeds 7, 11, 3, 1 and 5 (data, split and
    training): control sparsity 0.000 with all 190 noise dimensions
    alive; ramp sparsity 0.965-0.975 with none alive (largest noise
    lambda^2 2.5e-7), 5-7 of 10 informative alive and test accuracy
    1.000 against 1.000 pretrained."""
    tr, te = acceptance_splits
    cfg = TrainConfig(model_kind="grlvq", epochs=20, rate_metric=3e-4, alpha=5.0, seed=SEED)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(tr, cfg, rng)
    pre_acc = train(model, tr, cfg, test_data=te, rng=rng)[-1].test_accuracy
    state = rng.bit_generator.state

    final = {}
    for name, end in (("control", 0.0), ("ramp", 1.0)):
        run_rng = np.random.default_rng()
        run_rng.bit_generator.state = state
        m = model.copy()
        metrics, _ = run_path(m, tr, cfg, PathSchedule(0.0, end, steps=10, epochs_per_step=5),
                              test_data=te, rng=run_rng)
        alive = m.metric.lam**2 >= cfg.sparsity_threshold
        final[name] = (metrics[-1], int(alive[N_INFORMATIVE:].sum()),
                       int(alive[:N_INFORMATIVE].sum()))

    control, ramp = final["control"][0], final["ramp"][0]
    assert control.sparsity <= 0.05, f"weight 0 alone reached sparsity {control.sparsity:.3f}"
    assert ramp.sparsity >= 0.85, f"the ramp reached only sparsity {ramp.sparsity:.3f}"
    noise_alive, informative_alive = final["ramp"][1:]
    assert noise_alive == 0, f"{noise_alive} noise dimensions survive the ramp"
    assert ramp.test_accuracy >= pre_acc - 0.05, (
        f"accuracy {ramp.test_accuracy:.3f} after the ramp vs pretrained {pre_acc:.3f}")
    _report(
        "ACCEPTANCE PASS: the penalty earns its sparsity "
        f"(pretrain acc {pre_acc:.3f}; weight 0: sparsity {control.sparsity:.3f}, "
        f"{final['control'][1]} noise and {final['control'][2]} informative dims alive; "
        f"ramp to 1: sparsity {ramp.sparsity:.3f}, {noise_alive} noise and "
        f"{informative_alive} informative dims alive, acc {ramp.test_accuracy:.3f})"
    )


def _with_correlated_copies(data: LabeledDataset, rho: float,
                            rng: np.random.Generator) -> LabeledDataset:
    """`data` with columns N_INFORMATIVE..3 * N_INFORMATIVE - 1 overwritten by
    two copies of each informative column, each correlated rho with it:
    group j is columns j, N_INFORMATIVE + j and 2 * N_INFORMATIVE + j."""
    X = data.features.copy()
    informative = X[:, :N_INFORMATIVE]
    for k in (1, 2):
        noise = rng.standard_normal(informative.shape) * informative.std(axis=0)
        X[:, k * N_INFORMATIVE:(k + 1) * N_INFORMATIVE] = (
            rho * informative + math.sqrt(1.0 - rho**2) * noise)
    return LabeledDataset(X, data.labels, data.dim_names, data.label_names)


def test_correlated_bands_keep_one_per_group(acceptance_splits):
    """Neighbouring spectral bands correlate. With two copies of each
    informative column at correlation 0.95, `test_penalty_earns_its_sparsity`'s
    ramp keeps at most one band of each group and no noise column.
    Measured at seeds 7, 11 and 3, and at 7 with correlation 0.8: one band
    alive in 5 of the 10 groups, always the original, none of the 20
    copies or 170 noise columns, and test accuracy 1.000. At weight 0
    throughout (seed 7), all 10 originals, 6 copies and 170 noise columns
    stay alive."""
    copies_rng = np.random.default_rng(SEED)
    tr, te = (_with_correlated_copies(d, 0.95, copies_rng) for d in acceptance_splits)
    cfg = TrainConfig(model_kind="grlvq", epochs=20, rate_metric=3e-4, alpha=5.0, seed=SEED)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(tr, cfg, rng)
    pre_acc = train(model, tr, cfg, test_data=te, rng=rng)[-1].test_accuracy
    final = run_path(model, tr, cfg, PathSchedule(0.0, 1.0, steps=10, epochs_per_step=5),
                     test_data=te, rng=rng)[0][-1]

    alive = model.metric.lam**2 >= cfg.sparsity_threshold
    per_group = alive[:3 * N_INFORMATIVE].reshape(3, N_INFORMATIVE).sum(axis=0)
    noise_alive = int(alive[3 * N_INFORMATIVE:].sum())
    assert per_group.max() <= 1, f"bands alive per group: {per_group.tolist()}"
    assert per_group.any(), "no group keeps a band"
    assert noise_alive == 0, f"{noise_alive} noise dimensions survive the ramp"
    assert final.test_accuracy >= pre_acc - 0.05, (
        f"accuracy {final.test_accuracy:.3f} after the ramp vs pretrained {pre_acc:.3f}")
    _report(
        "ACCEPTANCE PASS: correlated bands keep one per group "
        f"({int(per_group.sum())} of {N_INFORMATIVE} groups alive, "
        f"{int(alive[N_INFORMATIVE:3 * N_INFORMATIVE].sum())} copies alive, "
        f"acc {final.test_accuracy:.3f} vs pretrained {pre_acc:.3f})"
    )


def test_gmlvq_path_smoke(acceptance_splits, grlvq_run, monkeypatch):
    """Projection-metric path run completes with the normalization
    invariant intact and accuracy near the profile-metric baseline.

    It also pins which way the ramp moves Omega's mass on the true
    dimensions, sum(profile[:10]**2): the max-column-sum penalty is lowest
    when the columns are equal, so over the second half of the ramp the
    mass falls step by step, ending below the weight-0 snapshot. The
    penalty does not sparsify Omega's columns at this alpha."""
    tr, te = acceptance_splits
    cfg = TrainConfig(model_kind="gmlvq", epochs=30, omega_rows=20, seed=SEED)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(tr, cfg, rng)

    deviations = []

    def watched_epoch(m, *args, **kwargs):
        metrics = train_epoch(m, *args, **kwargs)
        deviations.append(abs(float(np.sum(m.metric.omega**2)) - 1.0))
        return metrics

    # train and run_path look train_epoch up per call
    monkeypatch.setattr(trainer, "train_epoch", watched_epoch)
    train(model, tr, cfg, test_data=te, rng=rng)
    schedule = PathSchedule(0.0, 0.3, steps=10, epochs_per_step=4)
    path_metrics, snapshots = run_path(model, tr, cfg, schedule, test_data=te, rng=rng)
    assert len(deviations) == cfg.epochs + schedule.steps * schedule.epochs_per_step
    mass = [float(np.sum(s.metric.profile()[:N_INFORMATIVE] ** 2)) for s in snapshots]
    _report("gmlvq path true-dimension mass per step: "
            + " ".join(f"{x:.4f}" for x in mass))

    worst = max(deviations)
    assert worst <= 1e-10, f"normalization drifted to {worst:.3e}"
    final_acc = path_metrics[-1].test_accuracy
    floor = grlvq_run["pretrain_test_accuracy"] - 0.10
    assert final_acc >= floor, f"final accuracy {final_acc:.3f} below {floor:.3f}"
    half = len(mass) // 2
    assert all(a > b for a, b in zip(mass[half:], mass[half + 1:])), mass
    assert mass[-1] < mass[0], mass
    _report(
        "ACCEPTANCE PASS: gmlvq path smoke "
        f"(final acc {final_acc:.3f}, max norm deviation {worst:.1e}, "
        f"{len(deviations)} epochs checked)"
    )


def test_manifest_determinism(tmp_path):
    """Two runs from one manifest produce byte-identical metrics files."""
    data = synth_sparse(12, 4, 3, 15, 1.0, 9)
    csv_path = tmp_path / "data.csv"
    save_csv(data, csv_path)
    first = tmp_path / "run0"
    code = cli_main(["path", "--data", str(csv_path), "--epochs", "3",
                     "--reg-steps", "4", "--epochs-per-step", "2",
                     "--reg-end", "0.5", "--seed", "11", "--out", str(first)])
    assert code == 0
    manifest = first / "manifest.json"
    outputs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}"
        assert cli_main(["path", "--manifest", str(manifest), "--out", str(out)]) == 0
        outputs.append((out / "metrics.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == (first / "metrics.jsonl").read_bytes()
    _report("ACCEPTANCE PASS: manifest replay gives byte-identical metrics")
