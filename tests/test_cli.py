import json

import numpy as np
import pytest

from sparselvq import cli, trainer
from sparselvq.cli import _manifest_from_args, build_parser, main
from sparselvq.dataset import SplitSpec, load_csv, save_csv, split, synth_sparse
from sparselvq.glvq import PrototypeSet, TransferFn
from sparselvq.trainer import LVQModel, save_model


def run_cli(args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


@pytest.fixture()
def tiny_csv(tmp_path):
    data = synth_sparse(6, 2, 2, 12, 1.0, 5)
    path = tmp_path / "tiny.csv"
    save_csv(data, path)
    return path


class TestSynthCommand:
    def test_writes_expected_shape(self, tmp_path):
        out = tmp_path / "synthetic.csv"
        code = run_cli(["synth", "--dims", 200, "--informative", 10,
                        "--classes", 5, "--per-class", 200, "--seed", 7,
                        "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1001  # header + 1000 rows
        assert len(lines[0].split(",")) == 201
        meta = json.loads((tmp_path / "synthetic.meta.json").read_text())
        assert meta["informative_dims"] == list(range(10))

    def test_missing_required_flag_exits_2(self, tmp_path):
        code = run_cli(["synth", "--informative", 2, "--classes", 2,
                        "--per-class", 5, "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = ["synth", "--dims", 10, "--informative", 3, "--classes", 3,
                "--per-class", 8, "--seed", 3]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()


class TestTrainCommand:
    def test_happy_path_populates_run_dir(self, tmp_path, tiny_csv):
        out = tmp_path / "run"
        code = run_cli(["train", "--data", tiny_csv, "--label-col", "label",
                        "--model", "grlvq", "--epochs", 5, "--seed", 1,
                        "--out", out])
        assert code == 0
        for name in ("manifest.json", "metrics.jsonl", "model.json", "profile.csv"):
            assert (out / name).exists(), name
        metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(metrics) == 5
        assert set(metrics[0]) == {"epoch", "train_accuracy", "test_accuracy",
                                   "cost", "reg_term", "sparsity", "reg_weight"}
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "dim_index,dim_name,lambda,lambda_sq"
        assert len(profile) == 7  # header + 6 dims

    def test_gmlvq_omega_rows_zero_is_usage_error(self, tmp_path, tiny_csv):
        code = run_cli(["train", "--data", tiny_csv, "--model", "gmlvq",
                        "--omega-rows", 0, "--out", tmp_path / "r"])
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "path"])
    def test_omega_wider_than_the_data_writes_no_run(self, tmp_path, tiny_csv, capsys, command):
        out = tmp_path / "wide"
        assert run_cli([command, "--data", tiny_csv, "--model", "gmlvq",
                        "--omega-rows", 7, "--out", out]) == 1  # tiny_csv has 6 dims
        assert "1 <= rows <= columns, got 7x6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "path"])
    @pytest.mark.parametrize("extra,flag", [
        (["--model", "grlvq", "--omega-rows", 3], "--omega-rows"),
        (["--model", "glvq", "--omega-rows", 3], "--omega-rows"),
        (["--sigmoid-slope", 2.5], "--sigmoid-slope"),
        (["--transfer", "identity", "--sigmoid-slope", 1.0], "--sigmoid-slope"),
    ], ids=["grlvq-omega-rows", "glvq-omega-rows", "default-transfer-slope",
            "identity-slope"])
    def test_option_that_does_not_apply_is_usage_error(self, tmp_path, tiny_csv, capsys,
                                                       command, extra, flag):
        out = tmp_path / "r"
        assert run_cli([command, "--data", tiny_csv, *extra, "--out", out]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_sigmoid_without_a_slope_records_slope_one(self):
        args = build_parser().parse_args(["train", "--transfer", "sigmoid",
                                          "--data", "d.csv", "--out", "o"])
        transfer = _manifest_from_args(args, "train")["config"]["transfer"]
        assert transfer == {"kind": "sigmoid", "slope": 1.0}

    def test_missing_data_is_usage_error(self, tmp_path):
        assert run_cli(["train", "--out", tmp_path / "r"]) == 2

    def test_nonexistent_data_is_runtime_error(self, tmp_path):
        code = run_cli(["train", "--data", tmp_path / "nope.csv",
                        "--out", tmp_path / "r"])
        assert code == 1

    def test_manifest_replay_reproduces_metrics(self, tmp_path, tiny_csv):
        out1 = tmp_path / "r1"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 4,
                        "--seed", 2, "--out", out1]) == 0
        out2 = tmp_path / "r2"
        assert run_cli(["train", "--manifest", out1 / "manifest.json",
                        "--out", out2]) == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


class TestPathCommand:
    def test_twenty_step_path_csv(self, tmp_path, tiny_csv):
        out = tmp_path / "p"
        code = run_cli(["path", "--data", tiny_csv, "--epochs", 3,
                        "--epochs-per-step", 1, "--reg-steps", 20,
                        "--reg-start", 0, "--reg-end", 1.0,
                        "--seed", 4, "--out", out])
        assert code == 0
        rows = (out / "path.csv").read_text().splitlines()
        assert len(rows) == 21  # header + 20 steps
        weights = [float(r.split(",")[0]) for r in rows[1:]]
        assert all(b > a for a, b in zip(weights, weights[1:]))
        assert (out / "model_step_19.json").exists()

    def test_default_alpha_recorded_in_manifest(self, tmp_path, tiny_csv):
        out = tmp_path / "p2"
        assert run_cli(["path", "--data", tiny_csv, "--epochs", 1,
                        "--epochs-per-step", 1, "--reg-steps", 2,
                        "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 5.0
        assert manifest["command"] == "path"

    def test_single_zero_step_equals_train(self, tmp_path, tiny_csv):
        out_t = tmp_path / "t"
        out_p = tmp_path / "pz"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 5,
                        "--seed", 6, "--out", out_t]) == 0
        assert run_cli(["path", "--data", tiny_csv, "--epochs", 3,
                        "--epochs-per-step", 2, "--reg-steps", 1,
                        "--reg-start", 0, "--reg-end", 0,
                        "--seed", 6, "--out", out_p]) == 0
        assert (out_t / "model.json").read_bytes() == (out_p / "model.json").read_bytes()
        assert (out_t / "metrics.jsonl").read_bytes() == (out_p / "metrics.jsonl").read_bytes()

    @pytest.mark.parametrize("setting,message", [
        (["--alpha", "inf"], "alpha must be finite"),
        (["--rate-proto", "nan"], "rate_proto must be finite"),
        (["--rate-decay", "inf"], "rate_decay must be finite"),
        (["--rate-metric", "inf"], "rate_metric must be finite"),
        (["--sparsity-threshold", "inf"], "sparsity_threshold must be finite"),
        (["--reg-end", "inf"], "reg_weight_end must be finite"),
        (["--transfer", "sigmoid", "--sigmoid-slope", "inf"],
         "slope must be finite and >= 0, got inf"),
    ], ids=["alpha-inf", "rate-proto-nan", "rate-decay-inf", "rate-metric-inf",
            "sparsity-threshold-inf", "reg-end-inf", "sigmoid-slope-inf"])
    def test_setting_it_cannot_run_writes_no_run(self, tmp_path, tiny_csv, capsys,
                                                 setting, message):
        out = tmp_path / "r"
        assert run_cli(["path", "--data", tiny_csv, *setting, "--epochs", 2,
                        "--reg-steps", 2, "--epochs-per-step", 1, "--out", out]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra,edit", [
        pytest.param(["--model", "gmlvq", "--omega-rows", 3, "--transfer", "sigmoid",
                      "--sigmoid-slope", 2.5], None, id="gmlvq-sigmoid"),
        pytest.param([], lambda m: m["config"].pop("transfer"), id="config-without-transfer"),
    ])
    def test_replay_reproduces_every_file(self, tmp_path, tiny_csv, monkeypatch, extra, edit):
        configs = []

        def spy(data, config, rng):
            configs.append(config)
            return trainer.init_model(data, config, rng)

        monkeypatch.setattr(cli, "init_model", spy)
        out1, out2 = tmp_path / "run", tmp_path / "replay"
        assert run_cli(["path", "--data", tiny_csv, *extra, "--epochs", 2, "--epochs-per-step", 1,
                        "--reg-steps", 2, "--seed", 8, "--out", out1]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        if edit:
            edit(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli(["path", "--manifest", tmp_path / "manifest.json", "--out", out2]) == 0
        for name in ("metrics.jsonl", "path.csv", "model.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert configs[0] == configs[1]
        if edit:  # a manifest without `transfer` replays as identity
            assert configs[1].transfer == TransferFn()

    def test_replay_from_manifest(self, tmp_path, tiny_csv):
        out1 = tmp_path / "p3"
        assert run_cli(["path", "--data", tiny_csv, "--epochs", 2,
                        "--epochs-per-step", 1, "--reg-steps", 3,
                        "--seed", 8, "--out", out1]) == 0
        out2 = tmp_path / "p4"
        assert run_cli(["path", "--manifest", out1 / "manifest.json",
                        "--out", out2]) == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: m.pop("config"), id="missing-config"),
        pytest.param(lambda m: m["config"].update(learning_rate=0.1), id="unknown-setting"),
        pytest.param(lambda m: m.update(split=None), id="null-split"),
        pytest.param(lambda m: m["schedule"].update(steps="2"), id="string-steps"),
        pytest.param(lambda m: m["config"].update(epochs=2.5), id="fractional-epochs"),
        pytest.param(lambda m: m.update(l2_normalize="no"), id="string-l2-normalize"),
        pytest.param(lambda m: m["split"].update(seed=2.5), id="fractional-split-seed"),
        pytest.param(lambda m: m["split"].update(seed=True), id="bool-split-seed"),
        pytest.param(lambda m: m["split"].update(stratified="no"), id="string-stratified"),
        pytest.param(lambda m: m["split"].update(train_fraction=True), id="bool-train-fraction"),
        pytest.param(lambda m: m.update(schedule=None), id="null-schedule"),
        pytest.param(lambda m: m["config"]["transfer"].update(kind="sigmoid", slope=True),
                     id="bool-sigmoid-slope"),
        pytest.param(lambda m: m["config"]["transfer"].update(slope=True), id="bool-identity-slope"),
        pytest.param(lambda m: m["config"]["transfer"].update(kind="sigmoid", slope="2.5"),
                     id="string-sigmoid-slope"),
    ])
    def test_malformed_manifest_is_runtime_error(self, tmp_path, tiny_csv, capsys, edit):
        out1 = tmp_path / "p7"
        assert run_cli(["path", "--data", tiny_csv, "--epochs", 1, "--epochs-per-step", 1,
                        "--reg-steps", 2, "--out", out1]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        edit(manifest)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli(["path", "--manifest", bad, "--out", tmp_path / "p8"]) == 1
        assert "malformed manifest" in capsys.readouterr().err
        assert not (tmp_path / "p8").exists()

    @pytest.mark.parametrize("command,edit,message", [
        pytest.param("train", lambda m: m.update(schedule={"steps": 2, "epochs_per_step": 1}),
                     "malformed manifest: TypeError: a train run takes no schedule",
                     id="train-with-schedule"),
        pytest.param("path", lambda m: m["config"]["transfer"].update(slope=2.5),
                     "identity transfer takes no slope", id="identity-slope"),
        pytest.param("path", lambda m: m["config"].update(omega_rows=5),
                     "omega_rows applies only to gmlvq, not grlvq", id="grlvq-omega-rows"),
    ])
    def test_manifest_setting_the_run_cannot_take_writes_no_run(self, tmp_path, tiny_csv,
                                                                capsys, command, edit, message):
        out1 = tmp_path / "r"
        steps = ["--epochs-per-step", 1, "--reg-steps", 2] if command == "path" else []
        assert run_cli([command, "--data", tiny_csv, "--epochs", 1, *steps, "--out", out1]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        edit(manifest)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli([command, "--manifest", bad, "--out", tmp_path / "r2"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r2").exists()

    @pytest.mark.parametrize("key", ["data", "label_column", "out"])
    def test_manifest_path_that_is_not_a_string_writes_no_run(self, tmp_path, tiny_csv, capsys,
                                                             monkeypatch, key):
        assert run_cli(["path", "--data", tiny_csv, "--epochs", 1, "--epochs-per-step", 1,
                        "--reg-steps", 2, "--out", tmp_path / "r"]) == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["out"] = "r2"
        manifest[key] = 0  # `open(0)` would read standard input
        (tmp_path / "bad.json").write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert run_cli(["path", "--manifest", "bad.json"]) == 1  # the manifest's own `out`
        err = capsys.readouterr().err
        assert f"malformed manifest: TypeError: {key} must be a string, got 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_missing_schedule_fields_take_the_defaults(self, tmp_path, tiny_csv):
        out1 = tmp_path / "p"
        assert run_cli(["path", "--data", tiny_csv, "--epochs", 1, "--epochs-per-step", 1,
                        "--reg-steps", 2, "--reg-end", 0.5, "--out", out1]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["schedule"] = {"steps": 2, "epochs_per_step": 1}
        edited = tmp_path / "manifest.json"
        edited.write_text(json.dumps(manifest))
        assert run_cli(["path", "--manifest", edited, "--out", tmp_path / "p2"]) == 0
        rows = (tmp_path / "p2" / "path.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "1.0"]

    def test_manifest_that_is_not_an_object_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert run_cli(["path", "--manifest", bad, "--out", tmp_path / "p9"]) == 1
        assert "not a JSON object" in capsys.readouterr().err

    def test_wrong_manifest_command_is_usage_error(self, tmp_path, tiny_csv):
        out1 = tmp_path / "p5"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 1,
                        "--out", out1]) == 0
        assert run_cli(["path", "--manifest", out1 / "manifest.json",
                        "--out", tmp_path / "p6"]) == 2


class TestEvalCommand:
    def test_matches_final_train_accuracy(self, tmp_path, tiny_csv, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 6,
                        "--seed", 3, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        data = load_csv(tiny_csv, "label")
        train_part, _ = split(data, SplitSpec(**manifest["split"]))
        train_csv = tmp_path / "train_part.csv"
        save_csv(train_part, train_csv)
        capsys.readouterr()
        code = run_cli(["eval", "--model", out / "model.json",
                        "--data", train_csv, "--out", tmp_path / "eval.json"])
        assert code == 0
        final = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["accuracy"] == pytest.approx(final["train_accuracy"], abs=1e-12)

    def test_dimension_mismatch_reports_both_sizes(self, tmp_path, tiny_csv, capsys):
        model = LVQModel("glvq", PrototypeSet(np.zeros((2, 9)), np.array([0, 1])))
        mpath = tmp_path / "m.json"
        save_model(model, mpath)
        code = run_cli(["eval", "--model", mpath, "--data", tiny_csv,
                        "--out", tmp_path / "e.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert "9" in err and "6" in err

    def test_label_the_model_never_saw_is_runtime_error(self, tmp_path, tiny_csv, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 1, "--out", out]) == 0
        three = tmp_path / "three.csv"
        save_csv(synth_sparse(6, 2, 3, 4, 1.0, 5), three)
        capsys.readouterr()
        code = run_cli(["eval", "--model", out / "model.json", "--data", three,
                        "--out", tmp_path / "e.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "['2']" in err
        assert not (tmp_path / "e.json").exists()

    def test_unnamed_model_rejects_classes_beyond_its_prototypes(self, tmp_path, capsys):
        model = LVQModel("glvq", PrototypeSet(np.zeros((2, 6)), np.array([0, 1])))
        assert model.label_names is None
        mpath = tmp_path / "m.json"
        save_model(model, mpath)
        three = tmp_path / "three.csv"
        save_csv(synth_sparse(6, 2, 3, 4, 1.0, 5), three)
        capsys.readouterr()
        code = run_cli(["eval", "--model", mpath, "--data", three, "--out", tmp_path / "e.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "['2']" in err
        assert not (tmp_path / "e.json").exists()

    def test_predicts_once(self, tmp_path, tiny_csv, monkeypatch):
        out = tmp_path / "run"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 1, "--out", out]) == 0
        calls = []
        original = trainer.distance_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "distance_matrix", counting)
        assert main(["eval", "--model", str(out / "model.json"), "--data", str(tiny_csv),
                     "--out", str(tmp_path / "e.json")]) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "e.json").read_text())
        assert report["accuracy"] == np.trace(report["confusion"]) / report["n_samples"]

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda d: d.update({"lambda": None}), "lambda", id="grlvq-without-lambda"),
        pytest.param(lambda d: d.pop("protos"), "malformed model", id="missing-protos"),
        pytest.param(lambda d: d.update(kind="lvq3"), "kind", id="unknown-kind"),
        pytest.param(lambda d: d["protos"].update(labels=[0.7, 1.2]), "`labels` must hold",
                     id="float-labels"),
        pytest.param(lambda d: d.update({"lambda": [str(x) for x in d["lambda"]]}),
                     "`lambda` must hold", id="string-lambda"),
        pytest.param(lambda d: d.update({"lambda": d["lambda"][:-1]}),
                     "the metric has 5 dims, the prototypes 6", id="lambda-length"),
        pytest.param(lambda d: d.update(label_names=[0, 1]), "label_names must be a list of "
                     "distinct strings", id="integer-label-names"),
        pytest.param(lambda d: d.update(label_names=["0", "0"]), "label_names must be a list of "
                     "distinct strings", id="repeated-label-names"),
    ])
    def test_bad_model_file_is_runtime_error(self, tmp_path, tiny_csv, capsys, edit, message):
        out = tmp_path / "run"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 1, "--out", out]) == 0
        model = json.loads((out / "model.json").read_text())
        edit(model)
        mpath = tmp_path / "bad.json"
        mpath.write_text(json.dumps(model))
        capsys.readouterr()
        code = run_cli(["eval", "--model", mpath, "--data", tiny_csv,
                        "--out", tmp_path / "e.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_perfect_prototypes_on_noiseless_data(self, tmp_path, capsys):
        data = synth_sparse(5, 2, 3, 4, noise_sigma=0.0, seed=9)
        csv_path = tmp_path / "clean.csv"
        save_csv(data, csv_path)
        protos = PrototypeSet(
            np.array([data.features[data.labels == c][0] for c in range(3)]),
            np.arange(3),
        )
        mpath = tmp_path / "perfect.json"
        save_model(LVQModel("glvq", protos), mpath)
        code = run_cli(["eval", "--model", mpath, "--data", csv_path,
                        "--out", tmp_path / "e.json"])
        assert code == 0
        report = json.loads((tmp_path / "e.json").read_text())
        assert report["accuracy"] == 1.0
        conf = np.array(report["confusion"])
        assert np.trace(conf) == data.n_samples


class TestManifestContents:
    def test_written_before_training_and_self_describing(self, tmp_path, tiny_csv):
        out = tmp_path / "m"
        assert run_cli(["train", "--data", tiny_csv, "--epochs", 2,
                        "--rate-proto", "0.02", "--seed", 5,
                        "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "sparselvq"
        assert manifest["config"]["rate_proto"] == 0.02
        assert manifest["config"]["seed"] == 5
        assert manifest["split"] == {"train_fraction": 0.7, "stratified": True, "seed": 5}
        assert manifest["data"] == str(tiny_csv)

    @pytest.mark.parametrize("argv,config,schedule", [
        pytest.param(
            ["path", "--model", "gmlvq", "--omega-rows", "3", "--transfer", "sigmoid",
             "--sigmoid-slope", "2.5"],
            '{"model_kind": "gmlvq", "epochs": 100, "rate_proto": 0.01, "rate_metric": 0.001, '
            '"rate_decay": 0.001, "alpha": 5.0, "seed": 0, "transfer": {"kind": "sigmoid", '
            '"slope": 2.5}, "omega_rows": 3, "protos_per_class": 1, "sparsity_threshold": 0.0001}',
            '{"reg_weight_start": 0.0, "reg_weight_end": 1.0, "steps": 20, "epochs_per_step": 10}',
            id="path-gmlvq-sigmoid"),
        pytest.param(
            ["train"],
            '{"model_kind": "grlvq", "epochs": 100, "rate_proto": 0.01, "rate_metric": 0.001, '
            '"rate_decay": 0.001, "alpha": 5.0, "seed": 0, "transfer": {"kind": "identity", '
            '"slope": 1.0}, "omega_rows": 0, "protos_per_class": 1, "sparsity_threshold": 0.0001}',
            "null",
            id="train-defaults"),
    ])
    def test_run_settings_text(self, argv, config, schedule):
        # the manifest's run settings, key order included, as earlier versions wrote them
        args = build_parser().parse_args(argv + ["--data", "d.csv", "--out", "o"])
        manifest = _manifest_from_args(args, args.command)
        assert json.dumps(manifest["split"]) == '{"train_fraction": 0.7, "stratified": true, "seed": 0}'
        assert json.dumps(manifest["config"]) == config
        assert json.dumps(manifest["schedule"]) == schedule
