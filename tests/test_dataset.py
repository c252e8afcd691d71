import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sparselvq.dataset import (
    DatasetError,
    EmptyFile,
    LabeledDataset,
    MalformedCell,
    MissingLabelColumn,
    NonFiniteValue,
    SplitSpec,
    l2_normalize,
    load_csv,
    save_csv,
    split,
    synth_sparse,
)

from csv_oracle import load_csv_per_cell


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", newline="")
    return p


def peak_over_output(fn, *args):
    """Peak traced bytes while fn(*args) runs, over the bytes of what it returns
    (the features and labels of every dataset). 1.0 means no temporary at all."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outs = out if isinstance(out, tuple) else (out,)
    return peak / sum(d.features.nbytes + d.labels.nbytes for d in outs)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path, "f0,f1,label\n1.0,2.0,0\n3.5,4.5,1\n5.0,6.0,0\n")
        data = load_csv(p, "label")
        assert data.n_samples == 3
        assert data.n_features == 2
        assert data.dim_names == ["f0", "f1"]
        assert np.array_equal(data.labels, [0, 1, 0])

    def test_nan_cell_rejected(self, tmp_path):
        p = write(tmp_path, "f0,f1,label\n1.0,NaN,0\n2.0,3.0,1\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_csv(p, "label")
        assert exc.value.row == 0 and exc.value.col == 1

    def test_inf_cell_rejected(self, tmp_path):
        p = write(tmp_path, "f0,label\ninf,0\n1.0,1\n")
        with pytest.raises(NonFiniteValue):
            load_csv(p, "label")

    def test_string_labels_first_appearance(self, tmp_path):
        p = write(tmp_path, "f0,kind\n1.0,arabica\n2.0,robusta\n3.0,arabica\n")
        data = load_csv(p, "kind")
        assert np.array_equal(data.labels, [0, 1, 0])
        assert data.n_classes == 2
        assert data.label_names == ["arabica", "robusta"]

    def test_integer_labels_mapped_like_strings(self, tmp_path):
        p = write(tmp_path, "f0,label\n1.0,7\n2.0,3\n3.0,7\n")
        data = load_csv(p, "label")
        assert np.array_equal(data.labels, [0, 1, 0])
        assert data.label_names == ["7", "3"]

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path, "f0,f1\n1.0,2.0\n")
        with pytest.raises(MissingLabelColumn):
            load_csv(p, "label")

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, ""), "label")
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, "f0,label\n", name="h.csv"), "label")

    def test_malformed_cell(self, tmp_path):
        p = write(tmp_path, "f0,f1,label\n1.0,abc,0\n2.0,3.0,1\n")
        with pytest.raises(MalformedCell) as exc:
            load_csv(p, "label")
        assert exc.value.row == 0 and exc.value.col == 1

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(MalformedCell):
            load_csv(p, "label")

    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    @pytest.mark.parametrize("text", ["label,a,b\nx,1,2\ny,3,4\n", "a,b,label\n1,2,x\n3,4,y\n"],
                             ids=["label-first", "label-last"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        data = load_csv(write(tmp_path, "\ufeff" + text), "label")
        assert data.dim_names == ["a", "b"]
        assert data.label_names == ["x", "y"]
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_label_column_position_free(self, tmp_path):
        p = write(tmp_path, "label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
        data = load_csv(p, "label")
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])


def write_with_label_at(tmp_path, features, label_names, pos):
    """CSV of `features` with a "label" column at CSV column `pos`."""
    header = [f"band {j}" for j in range(features.shape[1])]
    header.insert(pos, "label")
    lines = [",".join(header)]
    for row, name in zip(features.tolist(), label_names):
        cells = list(map(repr, row))
        cells.insert(pos, name)
        lines.append(",".join(cells))
    return write(tmp_path, "\n".join(lines) + "\n")


class TestLoadCsvLabelPosition:
    """load_csv shifts the columns after the label in place, in row blocks."""

    POSITIONS = {"first": 0, "middle": 100, "last": 200}

    @pytest.fixture(scope="class")
    def pixels(self):
        # 5,000 x 200 values k/4, which repr writes and the reader reads exactly
        rng = np.random.default_rng(12)
        return rng.integers(-400, 400, size=(5000, 200)) / 4.0, rng.integers(0, 3, size=5000)

    @pytest.mark.parametrize("where", sorted(POSITIONS))
    def test_returns_the_columns_without_the_label_at_about_1x(self, tmp_path, pixels, where):
        features, classes = pixels
        names = [f"c{k}" for k in classes.tolist()]
        p = write_with_label_at(tmp_path, features, names, self.POSITIONS[where])
        # a feature copy beside the parsed table (np.delete) peaks at 2.00x
        assert peak_over_output(load_csv, p, "label") < 1.25
        data = load_csv(p, "label")
        assert np.array_equal(data.features, features)
        first_seen = list(dict.fromkeys(names))
        assert data.label_names == first_seen
        assert data.labels.tolist() == [first_seen.index(n) for n in names]
        assert data.dim_names == [f"band {j}" for j in range(200)]

    # the bad cell sits past the first row block, in the last feature column
    @pytest.mark.parametrize("value, error", [("x", MalformedCell), ("nan", NonFiniteValue)])
    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_a_bad_cell_is_named_by_its_csv_row_and_column(self, tmp_path, pos, value, error):
        features = np.tile([1.5, -2.0, 300.0, 4.0], (700, 1))
        features[600, 3] = 12345.0
        p = write_with_label_at(tmp_path, features, ["a"] * 700, pos)
        p.write_text(p.read_text().replace("12345.0", value))
        col = 4 if pos <= 3 else 3
        with pytest.raises(error) as exc:
            load_csv(p, "label")
        assert (exc.value.row, exc.value.col) == (600, col)


OK = "ok"


def outcome(loader, path, label_column="label"):
    """What a loader gives: the dataset's fields, or the error and its cell."""
    try:
        d = loader(path, label_column)
    except DatasetError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return OK, d.features.shape, d.features.tobytes(), d.labels.tolist(), d.dim_names, d.label_names


# (text, expected): OK, or the error type with its (row, col)
PARITY_CORPUS = {
    "label-first": ("label,f0,f1\na,1,2\nb,3,4\na,5,6\n", OK),
    "label-middle": ("f0,label,f1\n1,a,2\n3,b,4\n", OK),
    "label-last": ("f0,f1,label\n1,2,b\n3,4,a\n", OK),
    "label-only": ("label\na\nb\na\n", OK),
    "quoted": ('f0,f1,label\n"1.5",2,"x,y"\n3,"4e1",z\n5,6,"x,y"\n"7",8,"say ""hi"""\n', OK),
    "quoted-header": ('"f0","f,1",label\n1,2,a\n', OK),
    "crlf-blank-lines": ("\r\nf0,f1,label\r\n1,2,a\r\n\r\n3,4,b\r\n\r\n", OK),
    "whitespace": ("f0 , f1,label\n 1.0 ,\t2\t, a \n3,4,a\n", OK),
    "exponents": ("f0,f1,label\n1e-8,2.5E+3,a\n-3e0,4.,b\n0.1e-0009,1E5,a\n", OK),
    "signed-fraction": ("f0,f1,label\n+.5,-.25,a\n", OK),
    "empty-cell": ("f0,f1,label\n1,2,a\n1,,a\n", (MalformedCell, 1, 1)),
    "blank-quoted-cell": ('f0,f1,label\n1,"",a\n', (MalformedCell, 0, 1)),
    "nan": ("f0,f1,label\n1,nan,a\n", (NonFiniteValue, 0, 1)),
    "inf": ("label,f0,f1\na,inf,1\n", (NonFiniteValue, 0, 1)),
    "minus-infinity": ("f0,f1,label\n1,2,a\n3,-Infinity,b\n", (NonFiniteValue, 1, 1)),
    "overflow-to-inf": ("f0,f1,label\n1e400,2,a\n", (NonFiniteValue, 0, 0)),
    "text-cell": ("f0,f1,label\n1,2,a\n3,abc,b\n", (MalformedCell, 1, 1)),
    "ragged-short": ("f0,f1,label\n1,2,a\n3,b\n", (MalformedCell, 1, 2)),
    "ragged-long": ("f0,f1,label\n1,2,a\n3,4,b,9\n", (MalformedCell, 1, 4)),
    "every-row-long": ("f0,f1,label\n1,2,a,9\n3,4,b,9\n", (MalformedCell, 0, 4)),
    "whitespace-only-line": ("f0,f1,label\n1,2,a\n   \n", (MalformedCell, 1, 1)),
    "bom-bad-cell": ("\ufefflabel,f0,f1\na,1,2\nb,3,x\n", (MalformedCell, 1, 2)),
    "empty-label": ("f0,f1,label\n1,2,x\n3,4,\n5,6,y\n", (MalformedCell, 1, 2)),
    "blank-quoted-label": ('label,f0\na,1\n"  ",2\n', (MalformedCell, 1, 0)),
    "empty-label-before-bad-cell": ("f0,f1,label\n1,2,\n3,x,b\n", (MalformedCell, 0, 2)),
    "bad-cell-before-empty-label": ("f0,label,f1\nx,,1\n", (MalformedCell, 0, 0)),
    "non-finite-before-bad-cell": ("f0,f1,label\n1,nan,a\n2,3,b\n4,x,c\n", (NonFiniteValue, 0, 1)),
    "bad-cell-before-ragged-row": ("f0,f1,label\n1,x,a\n2,3\n", (MalformedCell, 0, 1)),
    "ragged-row-before-non-finite": ("f0,f1,label\n1,2\n3,inf,b\n", (MalformedCell, 0, 2)),
    "bad-cell-before-non-finite-in-row": ("f0,f1,label\nx,inf,a\n", (MalformedCell, 0, 0)),
    "no-label-column": ("f0,f1\n1,2\n", (MissingLabelColumn, None, None)),
    "empty": ("", (EmptyFile, None, None)),
    "blank-lines-only": ("\n\r\n\n", (EmptyFile, None, None)),
    "header-only": ("f0,label\n\n\n", (EmptyFile, None, None)),
}


class TestLoaderParity:
    """load_csv against the per-cell reference loader in csv_oracle."""

    @pytest.mark.parametrize("case", sorted(PARITY_CORPUS))
    def test_same_result_or_same_error_cell(self, tmp_path, case):
        text, expected = PARITY_CORPUS[case]
        p = write(tmp_path, text)
        got = outcome(load_csv, p)
        assert got == outcome(load_csv_per_cell, p)
        assert got[0] == OK if expected is OK else got == expected

    def test_save_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((40, 9)) * np.logspace(-8, 8, 9)
        data = LabeledDataset(feats, rng.integers(0, 3, size=40),
                              [f"band {i}" for i in range(9)], ["b,x", "a", "c"])
        p = tmp_path / "rt.csv"
        save_csv(data, p)
        got = outcome(load_csv, p)
        assert got == outcome(load_csv_per_cell, p)
        assert got[2] == data.features.tobytes()

    def test_digit_separator_is_the_one_difference(self, tmp_path):
        # float() reads "1_0" as 10.0; numpy's reader, and so load_csv, refuse it
        p = write(tmp_path, "f0,f1,label\n1,1_0,a\n")
        assert load_csv_per_cell(p, "label").features[0, 1] == 10.0
        assert outcome(load_csv, p) == (MalformedCell, 0, 1)

    @pytest.mark.parametrize("cell", [
        "1_0", "1.5_0", "1e1_0", "\xa01", "1\u2000", "\x1c1", "\x0b1 ",
        "\uff11", "\u0663.\u0665", " +.5 ", "1e", "0x1", "1d0", "nan(1)",
    ])
    def test_error_path_takes_exactly_what_the_reader_takes(self, tmp_path, cell):
        # Row 1 is always bad, so the C reader fails and the error path
        # scans from row 0: it must stop at row 0 exactly when the reader
        # refuses the cell there.
        try:
            np.loadtxt([cell], delimiter=",", comments=None, quotechar='"', encoding="utf-8")
            taken = True
        except ValueError:
            taken = False
        p = write(tmp_path, f"f0,label\n{cell},a\nx,b\n")
        assert outcome(load_csv, p) == (MalformedCell, 1 if taken else 0, 0)


class TestFiniteCheck:
    """The finiteness check sums the cells and scans only when the sum is not finite."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (299, 199), (150, 7)])
    def test_dataset_names_the_cell(self, cell, value):
        feats = np.random.default_rng(1).normal(size=(300, 200))
        feats[cell] = value
        with pytest.raises(NonFiniteValue) as exc:
            LabeledDataset(feats, np.zeros(300))
        assert (exc.value.row, exc.value.col) == cell

    # label in CSV column 2: first cell, last cell, and either side of the label
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cell", [(0, 0), (3, 4), (1, 1), (2, 3)])
    def test_load_csv_names_the_csv_cell(self, tmp_path, cell, value):
        rows = [["1.5", "-2", "a", "3e2", "4"] for _ in range(4)]
        rows[cell[0]][cell[1]] = value
        text = "f0,f1,label,f2,f3\n" + "".join(",".join(r) + "\n" for r in rows)
        with pytest.raises(NonFiniteValue) as exc:
            load_csv(write(tmp_path, text), "label")
        assert (exc.value.row, exc.value.col) == cell

    def test_first_bad_cell_in_row_major_order(self):
        feats = np.ones((4, 5))
        feats[2, 0] = np.nan
        feats[1, 3] = -np.inf
        feats[1, 4] = np.inf
        with pytest.raises(NonFiniteValue) as exc:
            LabeledDataset(feats, np.zeros(4))
        assert (exc.value.row, exc.value.col) == (1, 3)

    # the sums overflow to inf and, over both signs, to inf - inf = nan
    @pytest.mark.parametrize("feats", [np.full((2, 2), 1e308),
                                       np.repeat([[1e308] * 4, [-1e308] * 4], 32, axis=0)])
    def test_finite_cells_whose_sum_overflows_are_kept_without_a_warning(self, feats):
        labels = np.arange(feats.shape[0]) % 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = LabeledDataset(feats, labels)
            assert np.array_equal(data.subset([1, 0]).features, feats[[1, 0]])
        assert np.array_equal(data.features, feats)

    def test_load_csv_keeps_cells_whose_sum_overflows(self, tmp_path):
        data = load_csv(write(tmp_path, "f0,f1,label\n1e308,1e308,a\n1.7e308,1e308,b\n"), "label")
        assert np.array_equal(data.features, [[1e308, 1e308], [1.7e308, 1e308]])
        assert data.labels.tolist() == [0, 1]


class TestRoundTrip:
    def test_features_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((17, 5)) * np.logspace(-8, 8, 5)
        data = LabeledDataset(feats, rng.integers(0, 3, size=17))
        p = tmp_path / "rt.csv"
        save_csv(data, p)
        loaded = load_csv(p, "label")
        assert np.array_equal(loaded.features, data.features)
        # labels survive through the first-appearance mapping
        original = [int(loaded.label_names[l]) for l in loaded.labels]
        assert np.array_equal(original, data.labels)

    def test_sidecar_written(self, tmp_path):
        data = synth_sparse(6, 2, 2, 5, 1.0, 1)
        sidecar = save_csv(data, tmp_path / "s.csv", extra_meta={"informative_dims": [0, 1]})
        meta = json.loads(sidecar.read_text())
        assert meta["n_features"] == 6
        assert meta["informative_dims"] == [0, 1]
        assert meta["label_column"] == "label"


class TestL2Normalize:
    def test_three_four_five(self):
        data = LabeledDataset(np.array([[3.0, 4.0]]), np.array([0]))
        out = l2_normalize(data)
        assert np.allclose(out.features, [[0.6, 0.8]])

    def test_zero_row_rejected(self):
        data = LabeledDataset(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([0, 1]))
        with pytest.raises(DatasetError, match="row 1 has zero Euclidean norm"):
            l2_normalize(data)

    def test_unit_norms(self):
        rng = np.random.default_rng(1)
        data = LabeledDataset(rng.normal(size=(5, 10)), rng.integers(0, 2, size=5))
        out = l2_normalize(data)
        norms = np.linalg.norm(out.features, axis=1)  # recompute independently
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        data = LabeledDataset(rng.normal(size=(8, 6)), rng.integers(0, 2, size=8))
        once = l2_normalize(data)
        twice = l2_normalize(once)
        assert np.all(np.abs(twice.features - once.features) <= 1e-12)

    def test_labels_unchanged(self):
        data = LabeledDataset(np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([1, 0]))
        assert np.array_equal(l2_normalize(data).labels, [1, 0])


class TestLabelNames:
    LABELS = np.array([0, 1, 1])

    @pytest.mark.parametrize("names", [[0, 1], ["a", "a"], ["a"], "ab", ("a", "b"), ["a", ""]],
                             ids=["integers", "repeated", "too-few", "string", "tuple", "empty"])
    def test_must_be_distinct_strings_naming_every_label(self, names):
        with pytest.raises(ValueError, match="label_names must be a list of distinct strings"):
            LabeledDataset(np.zeros((3, 2)), self.LABELS, label_names=names)

    @pytest.mark.parametrize("names", [None, ["a", "b"], ["a", "b", "c"]])
    def test_accepted(self, names):
        assert LabeledDataset(np.zeros((3, 2)), self.LABELS, label_names=names).label_names == names


class TestSubset:
    def three_and_three(self):
        return LabeledDataset(np.arange(12, dtype=float).reshape(6, 2), np.array([0, 0, 0, 1, 1, 1]))

    def test_mask_selects_rows_where_true(self):
        data = self.three_and_three()
        out = data.subset(data.labels == 1)
        assert np.array_equal(out.labels, [1, 1, 1])
        assert np.array_equal(out.features, data.features[3:])

    @pytest.mark.parametrize("n", [0, 5, 7])
    def test_mask_of_wrong_length_rejected(self, n):
        with pytest.raises(DatasetError, match="mask"):
            self.three_and_three().subset(np.ones(n, dtype=bool))

    def test_indices_keep_order_and_repeats(self):
        data = self.three_and_three()
        out = data.subset([4, 0, 4])
        assert np.array_equal(out.labels, [1, 0, 1])
        assert np.array_equal(out.features, data.features[[4, 0, 4]])
        assert data.subset([]).n_samples == 0

    def test_result_does_not_alias_the_input(self):
        data = self.three_and_three()
        for out in (data.subset([0, 1]), data.subset(data.labels == 0)):
            out.features[:] = -1.0
            out.labels[:] = 9
        assert np.array_equal(data.features, np.arange(12, dtype=float).reshape(6, 2))
        assert np.array_equal(data.labels, [0, 0, 0, 1, 1, 1])

    def test_memory_is_one_output(self):
        data = synth_sparse(100, 5, 4, 2500, 1.0, 3)
        perm = np.random.default_rng(0).permutation(data.n_samples)
        assert peak_over_output(data.subset, perm) < 1.02


class TestSplit:
    def test_sizes(self):
        rng = np.random.default_rng(5)
        data = LabeledDataset(rng.normal(size=(100, 3)), rng.integers(0, 2, size=100))
        tr, te = split(data, SplitSpec(0.7, stratified=False, seed=0))
        assert tr.n_samples == 70 and te.n_samples == 30

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = LabeledDataset(rng.normal(size=(40, 2)), rng.integers(0, 2, size=40))
        a1, b1 = split(data, SplitSpec(0.6, seed=9))
        a2, b2 = split(data, SplitSpec(0.6, seed=9))
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)

    def test_stratified_counts(self):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1], 50)
        data = LabeledDataset(rng.normal(size=(100, 2)), labels)
        tr, _ = split(data, SplitSpec(0.8, stratified=True, seed=1))
        counts = np.bincount(tr.labels)
        assert abs(counts[0] - 40) <= 1 and abs(counts[1] - 40) <= 1

    def test_disjoint_cover(self):
        rng = np.random.default_rng(8)
        feats = np.arange(60, dtype=float).reshape(30, 2)
        data = LabeledDataset(feats, rng.integers(0, 3, size=30))
        tr, te = split(data, SplitSpec(0.5, stratified=False, seed=2))
        merged = np.vstack([tr.features, te.features])
        assert merged.shape[0] == 30
        assert set(map(tuple, merged)) == set(map(tuple, feats))

    def test_class_too_small(self):
        data = LabeledDataset(np.ones((3, 2)), np.array([0, 0, 1]))
        with pytest.raises(DatasetError, match=r"class 1 has only 1 sample\(s\)"):
            split(data, SplitSpec(0.5, stratified=True, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(DatasetError):
            SplitSpec(1.0)

    @pytest.mark.parametrize("fields,error,match", [
        ({"train_fraction": "0.5"}, TypeError, "train_fraction must be a number"),
        ({"train_fraction": True}, TypeError, "train_fraction must be a number"),
        ({"stratified": "no"}, TypeError, "stratified must be true or false"),
        ({"stratified": 1}, TypeError, "stratified must be true or false"),
        ({"seed": 2.5}, TypeError, "seed must be an integer"),
        ({"seed": True}, TypeError, "seed must be an integer"),
        ({"seed": -1}, ValueError, "seed must be finite and >= 0"),
    ])
    def test_bad_field_types(self, fields, error, match):
        with pytest.raises(error, match=match):
            SplitSpec(**{"train_fraction": 0.5, **fields})

    def test_numpy_numbers_are_accepted(self):
        assert SplitSpec(np.float64(0.5), False, np.int64(3)).seed == 3

    def test_memory_is_one_output(self):
        data = synth_sparse(100, 5, 4, 2500, 1.0, 3)
        assert peak_over_output(split, data, SplitSpec(0.8, seed=1)) < 1.02

    @staticmethod
    def reference_split_rows(labels, spec):
        """Sorted train row indices, drawn the same way index by index."""
        rng = np.random.default_rng(spec.seed)
        if not spec.stratified:
            k = min(max(int(round(spec.train_fraction * labels.size)), 1), labels.size - 1)
            return np.sort(rng.permutation(labels.size)[:k])
        picks = []
        for c in range(labels.max() + 1):
            perm = rng.permutation(np.flatnonzero(labels == c))
            k = min(max(int(round(spec.train_fraction * perm.size)), 1), perm.size - 1)
            picks.append(perm[:k])
        return np.sort(np.concatenate(picks))

    @pytest.mark.parametrize("stratified", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_sides_in_row_order_match_reference_draws(self, stratified, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 200))
        data = LabeledDataset(rng.normal(size=(n, 3)), np.arange(n) % 3)
        spec = SplitSpec([0.1, 0.5, 0.7, 0.95][seed % 4], stratified, seed)
        train_rows = self.reference_split_rows(data.labels, spec)
        test_rows = np.setdiff1d(np.arange(n), train_rows)
        tr, te = split(data, spec)
        assert np.array_equal(tr.features, data.features[train_rows])
        assert np.array_equal(te.features, data.features[test_rows])
        assert np.array_equal(tr.labels, data.labels[train_rows])


def nearest_class_mean_accuracy(train, test):
    """Independent oracle classifier for the synthetic generator."""
    means = np.array([
        train.features[train.labels == c].mean(axis=0)
        for c in range(train.n_classes)
    ])
    d = ((test.features[:, None, :] - means[None]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d, axis=1) == test.labels))


class TestSynthSparse:
    def test_no_noise_identical_rows(self):
        data = synth_sparse(8, 3, 2, 4, noise_sigma=0.0, seed=0)
        for c in range(2):
            rows = data.features[data.labels == c]
            assert np.all(rows == rows[0])

    def test_invalid_counts(self):
        with pytest.raises(DatasetError, match=r"n_informative must be in 0\.\.5, got 6"):
            synth_sparse(5, 6, 2, 10)
        with pytest.raises(DatasetError, match="got 1, 5, 10"):
            synth_sparse(5, 2, 1, 10)
        with pytest.raises(DatasetError, match="got 2, 5, 0"):
            synth_sparse(5, 2, 2, 0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), 1e307, 1e308])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        # 1e308 is in range, but the features it scales are not finite;
        # with 1e307 they are, but not their squares
        message = (f"noise_sigma {sigma} makes the features overflow" if sigma in (1e307, 1e308)
                   else f"noise_sigma must be finite and >= 0, got {sigma}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match=re.escape(message)):
                synth_sparse(5, 2, 2, 10, noise_sigma=sigma)

    def test_deterministic(self):
        a = synth_sparse(10, 3, 3, 5, 1.0, 42)
        b = synth_sparse(10, 3, 3, 5, 1.0, 42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_informative_near_chance(self):
        data = synth_sparse(10, 0, 2, 500, 1.0, 3)
        tr, te = split(data, SplitSpec(0.5, seed=1))
        acc = nearest_class_mean_accuracy(tr, te)
        assert abs(acc - 0.5) < 0.08

    def test_informative_dims_give_high_accuracy(self):
        data = synth_sparse(200, 10, 5, 200, 1.0, 7)
        tr, te = split(data, SplitSpec(0.7, seed=2))
        assert nearest_class_mean_accuracy(tr, te) > 0.95

    def test_noninformative_means_match_across_classes(self):
        sigma, per_class = 1.0, 400
        data = synth_sparse(10, 3, 3, per_class, sigma, 11)
        tol = 5 * sigma / np.sqrt(per_class)
        means = np.array([
            data.features[data.labels == c].mean(axis=0) for c in range(3)
        ])
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.all(np.abs(means[a, 3:] - means[b, 3:]) <= tol)

    def test_informative_offsets_large(self):
        sigma = 0.5
        data = synth_sparse(6, 2, 3, 2000, sigma, 13)
        means = np.array([
            data.features[data.labels == c].mean(axis=0) for c in range(3)
        ])
        # every class mean magnitude at least ~4 sigma on informative dims
        assert np.all(np.abs(means[:, :2]) > 3.5 * sigma)

    def test_memory_is_one_output(self):
        assert peak_over_output(synth_sparse, 100, 5, 4, 2500, 1.0, 3) < 1.25

    @pytest.mark.parametrize("args", [
        (200, 10, 5, 40, 1.0),
        (12, 3, 4, 7, 0.0),  # noise_sigma 0: the rows are the class means
        (9, 0, 3, 11, 1.0),  # no informative dims: no sign or magnitude draws
        (6, 1, 2, 5, 0.5),  # 2 classes on 1 sign: about half of the seeds redraw
        (7, 2, 4, 3, 2.0),  # 4 classes on 2 signs: every pattern once
        (5, 2, 6, 2, 1.0),  # more classes than sign patterns: no redraw
        (4, 3, 8, 2, 1.0),  # 8 classes on 3 signs: every pattern once, many redraws
        (10, 4, 5, 3, 1.0),  # 5 of 16 patterns: duplicates past the first pair
    ])
    def test_matches_reference_formula(self, args):
        redraws = 0
        for seed in range(8):
            ref, n = reference_synth_sparse(*args, seed)
            redraws += n
            out = synth_sparse(*args, seed)
            assert np.array_equal(out.features, ref.features)
            assert np.array_equal(out.labels, ref.labels)
        if args[1:3] in ((1, 2), (3, 8)):
            assert redraws > 0


def reference_synth_sparse(n_dims, n_informative, classes, per_class, noise_sigma, seed):
    """synth_sparse as the plain formula means[labels] + sigma * noise, with its
    RNG draws in the same order and the duplicate sign rows found by a scan
    over the earlier rows; also returns how many sign rows were redrawn."""
    rng = np.random.default_rng(seed)
    base = noise_sigma if noise_sigma > 0 else 1.0
    means = np.zeros((classes, n_dims))
    redraws = 0
    if n_informative > 0:
        signs = rng.integers(0, 2, size=(classes, n_informative)) * 2 - 1
        for _ in range(1000 if 2**n_informative >= classes else 0):
            rows = [tuple(r) for r in signs]
            dup = next((c for c in range(1, classes) if rows[c] in rows[:c]), -1)
            if dup < 0:
                break
            signs[dup] = rng.integers(0, 2, size=n_informative) * 2 - 1
            redraws += 1
        mags = base * rng.uniform(4.0, 8.0, size=(classes, n_informative))
        means[:, :n_informative] = signs * mags
    labels = np.repeat(np.arange(classes), per_class)
    noise = noise_sigma * rng.standard_normal((labels.size, n_dims))
    return LabeledDataset(means[labels] + noise, labels), redraws
