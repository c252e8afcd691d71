"""The top-level `sparselvq` namespace: the names a user calls, and no more."""

import inspect
import re
from pathlib import Path

import pytest

import sparselvq
from sparselvq import dataset, glvq, l1smooth, metric, trainer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_and_predict_import_from_the_package():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"from sparselvq import \(([^)]*)\)", library)
    names = re.findall(r"\w+", block.group(1))
    assert {"train", "run_path"} <= set(names)
    assert [n for n in names + ["predict"] if not hasattr(sparselvq, n)] == []
    assert sparselvq.predict is trainer.predict


@pytest.mark.parametrize("name", [
    "LabeledDataset", "SplitSpec", "load_csv", "save_csv", "l2_normalize", "split",
    "synth_sparse", "TransferFn", "PrototypeSet", "RelevanceProfile", "OmegaMatrix",
    "abs_smooth", "l1_smooth", "matrix_l1_smooth", "sandwich_check", "LVQModel",
    "TrainConfig", "PathSchedule", "train", "run_path", "evaluate", "predict",
    "load_model", "save_model",
])
def test_user_facing_name_is_exported(name):
    assert hasattr(sparselvq, name)


@pytest.mark.parametrize("module,name", [
    (glvq, "WinnerPair"), (glvq, "classifier_mu"), (glvq, "xi_factors"),
    (glvq, "init_prototypes"), (metric, "grad_lambda"), (metric, "grad_omega"),
    (metric, "clamp_lambda"), (metric, "normalize_lambda"), (metric, "normalize_omega"),
    (l1smooth, "abs_smooth_grad"), (l1smooth, "matrix_l1_smooth_grad"),
])
def test_sgd_step_maths_lives_in_its_module_only(module, name):
    assert hasattr(module, name)
    assert not hasattr(sparselvq, name)


def test_xi_factors_takes_the_two_winner_distances_and_the_transfer():
    assert list(inspect.signature(glvq.xi_factors).parameters) == ["d_plus", "d_minus", "f"]


def test_train_and_run_path_take_only_what_the_code_cannot_work_out():
    assert (list(inspect.signature(trainer.train).parameters)
            == ["model", "train_data", "config", "test_data", "rng"])
    assert (list(inspect.signature(trainer.run_path).parameters)
            == ["model", "train_data", "config", "schedule", "test_data", "rng"])
    for fn in (trainer.train, trainer.run_path):
        rng = inspect.signature(fn).parameters["rng"]
        assert rng.kind is inspect.Parameter.KEYWORD_ONLY
        assert rng.default is inspect.Parameter.empty


@pytest.mark.parametrize("module,name", [
    (dataset, "select_bands"), (dataset, "IndexOutOfRange"), (l1smooth, "l1_exact"),
    (l1smooth, "smooth_max"), (trainer, "regularized_objective"),
    (glvq, "DegenerateDistances"), (glvq, "NoSameClassPrototype"),
    (glvq, "NoOtherClassPrototype"), (metric, "DimensionMismatch"),
    (metric, "AllZeroParameters"), (dataset, "InvalidCounts"), (dataset, "ClassTooSmall"),
    (dataset, "ZeroVectorRow"),
])
def test_deleted_name_is_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(sparselvq, name)


@pytest.mark.parametrize("owner,name", [
    (dataset.LabeledDataset, "class_counts"), (glvq.TransferFn, "identity"),
    (glvq.TransferFn, "sigmoid"), (metric.OmegaMatrix, "rows"), (trainer.LVQModel, "profile"),
])
def test_deleted_method_is_gone(owner, name):
    assert not hasattr(owner, name)
