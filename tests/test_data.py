"""Dataset ingestion, schema, balancing, splitting, and synthesis tests."""

import decimal
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fasdnet import data
from fasdnet.data import (
    BATTERIES,
    SCHEMAS,
    Dataset,
    SplitSpec,
    balance_downsample,
    drop_features,
    load_csv,
    stratified_split,
    synthesize_dataset,
    write_csv,
)
from fasdnet.errors import (
    DataError,
    ParseError,
    SchemaError,
    UnknownFeatureError,
)
from fasdnet.rng import SeededRng

# ------------------------------------------------------------------- schemas


def test_schema_constants_are_pinned():
    expected = {
        "psychometric": (20, 129),
        "antisaccade": (15, 174),
        "prosaccade": (18, 186),
        "memory-guided": (26, 154),
        "dti": (48, 76),
    }
    assert set(SCHEMAS) == set(expected)
    for battery, (features, rows) in expected.items():
        assert SCHEMAS[battery].expected_feature_count == features
        assert SCHEMAS[battery].expected_rows == rows
    assert "synthetic" in BATTERIES and "synthetic" not in SCHEMAS


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset("psychometric", ("a",), np.zeros((2, 1)), np.array([0, 2]))
    with pytest.raises(DataError):
        Dataset("psychometric", ("a", "b"), np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(DataError):
        Dataset("nope", ("a",), np.zeros((1, 1)), np.array([0]))
    ds = Dataset("synthetic", ("a",), np.zeros((3, 1)), np.array([0, 1, 1]))
    assert ds.class_counts() == (1, 2)


# -------------------------------------------------------------------- loading


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_accepts_matching_width(tmp_path):
    names = ",".join(f"c{i}" for i in range(20))
    lines = [names + ",label"]
    for i in range(4):
        lines.append(",".join(["1.5"] * 20) + f",{i % 2}")
    path = _write(tmp_path / "p.csv", "\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="129 rows"):
        ds = load_csv(path, "psychometric")
    assert ds.n_features == 20
    assert ds.n_rows == 4
    assert ds.feature_names[0] == "c0"


def test_load_csv_rejects_wrong_width(tmp_path):
    names = ",".join(f"c{i}" for i in range(19))
    path = _write(tmp_path / "p.csv", names + ",label\n" + ",".join(["1"] * 20) + "\n")
    with pytest.raises(SchemaError, match="expects 20 feature columns"):
        load_csv(path, "psychometric")


def test_load_csv_requires_label_header(tmp_path):
    path = _write(tmp_path / "x.csv", "a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError, match="label"):
        load_csv(path, "synthetic")


def test_load_csv_parse_errors_name_position(tmp_path):
    path = _write(tmp_path / "x.csv", "a,b,label\n1.0,oops,0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, "synthetic")
    assert "line 2" in str(err.value) and "'b'" in str(err.value)

    path2 = _write(tmp_path / "y.csv", "a,b,label\n1.0,,1\n")
    with pytest.raises(ParseError, match="missing value"):
        load_csv(path2, "synthetic")

    path3 = _write(tmp_path / "z.csv", "a,b,label\n1.0,2.0\n")
    with pytest.raises(ParseError, match="2 cells"):
        load_csv(path3, "synthetic")


def test_load_csv_rejects_non_finite_cells(tmp_path):
    # the blank line is skipped, so the bad cell sits on line 4
    for cell in ("nan", "inf", "-inf", "NaN"):
        path = _write(tmp_path / "x.csv",
                      f"a,b,label\n1.0,2.0,0\n\n3.0,{cell},1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "synthetic")
        message = str(err.value)
        assert str(path) in message
        assert "line 4, column 'b'" in message and repr(cell) in message


def test_load_csv_rejects_duplicate_header_names(tmp_path):
    for header, dup in (("a,a,label", "a"), ("a,label,label", "label")):
        path = _write(tmp_path / "x.csv", f"{header}\n1.0,2.0,0\n")
        with pytest.raises(SchemaError) as err:
            load_csv(path, "synthetic")
        assert str(path) in str(err.value)
        assert f"line 1, column {dup!r}: duplicate" in str(err.value)


def test_load_csv_rejects_bad_labels(tmp_path):
    path = _write(tmp_path / "x.csv", "a,label\n1.0,3\n")
    with pytest.raises(DataError, match="label must be 0 or 1"):
        load_csv(path, "synthetic")


def test_load_csv_ends_lines_only_at_lf_crlf_and_cr(tmp_path):
    # str.splitlines() would also end lines at the \x0b after 2.0 and at
    # the \x85 and \u2028 before values, and report a wrong-width line;
    # they are padding, like the \x1c and \x1f that float() rejects
    # but str.strip() strips
    path = _write(tmp_path / "x.csv", "a,b,label\n2.0\x0b,1.0,0\n"
                  "\x851.5,\u20283.0,1\n\x1c4.0,5.0\x1f,0\n")
    ds = load_csv(path, "synthetic")
    assert ds.x.tolist() == [[2.0, 1.0], [1.5, 3.0], [4.0, 5.0]]
    assert ds.y.tolist() == [0, 1, 0]
    for end in ("\n", "\r\n", "\r"):
        path = tmp_path / "ends.csv"
        path.write_bytes(end.join(["a,label", "1.0,0", "", "x,1", ""]).encode())
        with pytest.raises(ParseError, match="line 4, column 'a'"):
            load_csv(path, "synthetic")


def test_load_csv_names_the_line_and_column_of_a_byte_that_is_not_utf8(
        tmp_path):
    path = tmp_path / "x.csv"
    for end in (b"\n", b"\r\n", b"\r"):
        # the blank line counts, and the two-byte \xc3\xa9 before the
        # bad byte is one valid character
        path.write_bytes(end.join([b"a, b ,label", b"1.0,2.0,0", b"",
                                   b"\xc3\xa9,4\xff,1", b""]))
        with pytest.raises(ParseError) as err:
            load_csv(path, "synthetic")
        assert str(err.value) == (
            f"{path}: line 4, column 'b': byte 0xff is not UTF-8")
    # a truncated sequence at the end of the file, in the label column
    path.write_bytes(b"a,label\n1.0,0\n2.0,\xc3")
    with pytest.raises(ParseError, match="line 3, column 'label': byte 0xc3"):
        load_csv(path, "synthetic")
    # a header cell, and a cell beyond the header's width, by number
    for text, where in ((b"a,\xfe,label\n1,0\n", "line 1, column 2"),
                        (b"a,label\n1,0,\xfe\n", "line 2, column 3")):
        path.write_bytes(text)
        with pytest.raises(ParseError, match=f"{where}: byte 0xfe"):
            load_csv(path, "synthetic")


def test_load_csv_empty_and_unknown_battery(tmp_path):
    path = _write(tmp_path / "x.csv", "")
    with pytest.raises(ParseError):
        load_csv(path, "synthetic")
    with pytest.raises(DataError):
        load_csv(path, "spelling-test")


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = synthesize_dataset(13, 7, 1.7, SeededRng(21))
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    back = load_csv(path, "synthetic")
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.x, ds.x)  # bit-exact, no tolerance
    assert np.array_equal(back.y, ds.y)
    # and writing again produces identical bytes
    path2 = tmp_path / "round2.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


# ------------------------------------------------------------------ ablation


def _named_dataset():
    rng = SeededRng(3)
    base = synthesize_dataset(6, 5, 1.0, rng)
    names = ("sex", "age", "score_a", "score_b", "score_c")
    return Dataset("synthetic", names, base.x, base.y)


def test_drop_features_nothing_is_identity():
    ds = _named_dataset()
    out = drop_features(ds, [])
    assert out.feature_names == ds.feature_names
    assert np.array_equal(out.x, ds.x)


def test_drop_features_removes_named_columns():
    ds = _named_dataset()
    out = drop_features(ds, ["sex", "age"])
    assert out.n_features == 3
    assert out.feature_names == ("score_a", "score_b", "score_c")
    np.testing.assert_array_equal(out.x, ds.x[:, 2:])


def test_drop_features_preserves_order():
    ds = _named_dataset()
    out = drop_features(ds, ["age", "score_b"])
    assert out.feature_names == ("sex", "score_a", "score_c")
    np.testing.assert_array_equal(out.x, ds.x[:, [0, 2, 4]])


def test_drop_features_unknown_name():
    with pytest.raises(UnknownFeatureError, match="height"):
        drop_features(_named_dataset(), ["height"])


# ----------------------------------------------------------------- balancing


def _imbalanced(n_majority, n_minority, majority_label=0, seed=5):
    rng = SeededRng(seed)
    n = n_majority + n_minority
    x = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    y = np.array(
        [majority_label] * n_majority + [1 - majority_label] * n_minority
    )
    perm = rng.shuffle(n)
    return Dataset("synthetic", ("a", "b", "c"), x[perm], y[perm])


def test_balance_downsample_equalizes_counts():
    # battery-sized case: 106 controls vs 68 positives
    ds = _imbalanced(106, 68)
    out = balance_downsample(ds, SeededRng(0))
    assert out.class_counts() == (68, 68)


def test_balance_downsample_counts_when_positives_dominate():
    ds = _imbalanced(90, 30, majority_label=1)
    out = balance_downsample(ds, SeededRng(1))
    assert out.class_counts() == (30, 30)


def test_balance_already_balanced_is_identity():
    ds = _imbalanced(40, 40)
    out = balance_downsample(ds, SeededRng(2))
    assert out is ds


def test_balance_only_removes_majority_rows():
    ds = _imbalanced(50, 20)
    out = balance_downsample(ds, SeededRng(3))
    kept = {tuple(row) for row in out.x}
    original = {tuple(row) for row in ds.x}
    assert kept <= original  # never invents or edits a row
    removed_rows = original - kept
    minority_rows = {tuple(r) for r, label in zip(ds.x, ds.y) if label == 1}
    assert not (removed_rows & minority_rows)
    # surviving rows keep their original relative order
    pos_of = {tuple(r): i for i, r in enumerate(ds.x)}
    positions = [pos_of[tuple(r)] for r in out.x]
    assert positions == sorted(positions)


def test_balance_requires_both_classes():
    x = np.zeros((4, 2))
    ds = Dataset("synthetic", ("a", "b"), x, np.array([1, 1, 1, 1]))
    with pytest.raises(DataError):
        balance_downsample(ds, SeededRng(0))


# ------------------------------------------------------------------ splitting


def test_split_exact_arithmetic():
    ds = _imbalanced(50, 50)
    train, test = stratified_split(ds, SplitSpec(0.8, seed=7))
    assert train.n_rows == 80 and test.n_rows == 20
    assert train.class_counts() == (40, 40)
    assert test.class_counts() == (10, 10)


def test_split_battery_sized_case():
    # 129 rows split 75/25: per-class ceil rounding lands within one
    # sample of the 97/32 whole-set arithmetic
    ds = _imbalanced(71, 58)
    train, test = stratified_split(ds, SplitSpec(0.75, seed=1))
    assert train.n_rows + test.n_rows == 129
    assert abs(train.n_rows - 97) <= 1
    assert abs(test.n_rows - 32) <= 1


def test_split_partitions_disjoint_and_exhaustive():
    ds = synthesize_dataset(30, 4, 1.0, SeededRng(11))
    train, test = stratified_split(ds, SplitSpec(0.7, seed=5))
    all_rows = sorted(map(tuple, ds.x))
    split_rows = sorted(map(tuple, np.vstack([train.x, test.x])))
    assert all_rows == split_rows  # multiset equality
    assert not ({tuple(r) for r in train.x} & {tuple(r) for r in test.x})


def test_split_class_proportions_within_one_sample():
    ds = _imbalanced(67, 33)
    train, test = stratified_split(ds, SplitSpec(0.8, seed=9))
    for part in (train, test):
        controls, fasd = part.class_counts()
        expected_fasd = part.n_rows * 33 / 100
        assert abs(fasd - expected_fasd) <= 1.0


def test_split_deterministic_and_seed_sensitive():
    ds = synthesize_dataset(20, 3, 1.0, SeededRng(2))
    a1, b1 = stratified_split(ds, SplitSpec(0.8, seed=4))
    a2, b2 = stratified_split(ds, SplitSpec(0.8, seed=4))
    assert np.array_equal(a1.x, a2.x) and np.array_equal(b1.x, b2.x)
    a3, _ = stratified_split(ds, SplitSpec(0.8, seed=5))
    assert not np.array_equal(a1.x, a3.x)


def test_split_rejects_tiny_classes():
    x = np.zeros((3, 2))
    ds = Dataset("synthetic", ("a", "b"), x, np.array([0, 0, 1]))
    with pytest.raises(DataError, match="fewer than 2"):
        stratified_split(ds, SplitSpec(0.8, seed=0))


def test_split_spec_validates_fraction():
    with pytest.raises(DataError):
        SplitSpec(0.0)
    with pytest.raises(DataError):
        SplitSpec(1.0)


# ------------------------------------------------------------------ synthesis


def test_synthesize_shapes_and_determinism():
    a = synthesize_dataset(12, 9, 2.0, SeededRng(6))
    b = synthesize_dataset(12, 9, 2.0, SeededRng(6))
    assert a.n_rows == 24 and a.n_features == 9
    assert a.class_counts() == (12, 12)
    assert np.array_equal(a.x, b.x)
    assert a.battery == "synthetic"
    assert a.feature_names[:2] == ("f00", "f01")


def test_synthesize_mixed_scales():
    ds = synthesize_dataset(200, 4, 0.0, SeededRng(8))
    # even columns near 0 with unit spread; odd columns near 70, spread 10
    assert abs(ds.x[:, 0].mean()) < 0.5
    assert abs(ds.x[:, 1].mean() - 70.0) < 5.0
    assert 0.8 < ds.x[:, 0].std() < 1.2
    assert 8.0 < ds.x[:, 1].std() < 12.0


def test_synthesize_separation_six_is_threshold_separable():
    ds = synthesize_dataset(300, 6, 6.0, SeededRng(10))
    # a hand-written threshold on feature 0 alone should be nearly perfect
    predictions = (ds.x[:, 0] > 3.0).astype(int)
    accuracy = float(np.mean(predictions == ds.y))
    assert accuracy > 0.95


def test_synthesize_separation_zero_has_no_signal():
    ds = synthesize_dataset(300, 6, 0.0, SeededRng(12))
    predictions = (ds.x[:, 0] > 0.0).astype(int)
    accuracy = float(np.mean(predictions == ds.y))
    assert 0.4 < accuracy < 0.6


def test_synthesize_bounds():
    with pytest.raises(DataError):
        synthesize_dataset(0, 5, 1.0, SeededRng(0))
    with pytest.raises(DataError):
        synthesize_dataset(5, 0, 1.0, SeededRng(0))


# ---------------------------------------------------------------- properties

# no deadline: these examples check values, not time, and shared
# machines stall now and then
PROPERTY_SETTINGS = settings(deadline=None, max_examples=100)
FINITE_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e308, -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0]
FINITE = st.one_of(st.sampled_from(FINITE_SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def labelled_rows(draw, min_per_class=1):
    """Labels with at least min_per_class of each class, in any order,
    and a first feature that numbers the rows (so output rows can be
    traced back to input rows)."""
    n0 = draw(st.integers(min_per_class, 25))
    n1 = draw(st.integers(min_per_class, 25))
    y = np.array(draw(st.permutations([0] * n0 + [1] * n1)), dtype=np.int64)
    extra = draw(st.integers(0, 3))
    x = np.column_stack([np.arange(len(y), dtype=np.float64),
                         np.zeros((len(y), extra))])
    return Dataset("synthetic", tuple(f"f{j}" for j in range(1 + extra)), x, y)


def row_ids(ds):
    return ds.x[:, 0].astype(np.int64)


@PROPERTY_SETTINGS
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                max_side=8),
                  elements=FINITE),
       st.data())
def test_write_then_load_is_bit_exact_for_any_finite_doubles(x, data):
    y = np.array(data.draw(st.lists(st.sampled_from([0, 1]),
                                    min_size=len(x), max_size=len(x))))
    ds = Dataset("synthetic", tuple(f"f{j}" for j in range(x.shape[1])), x, y)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        write_csv(ds, path)
        back = load_csv(path, "synthetic")
    assert back.x.tobytes() == x.tobytes()  # -0.0 keeps its sign bit
    assert np.array_equal(back.y, y)
    assert back.feature_names == ds.feature_names


@PROPERTY_SETTINGS
@given(labelled_rows(min_per_class=2),
       st.floats(0.01, 0.99), st.integers(0, 2**64 - 1))
def test_split_is_a_disjoint_exhaustive_partition(ds, fraction, seed):
    train_set, test_set = stratified_split(ds, SplitSpec(fraction, seed=seed))
    train_ids, test_ids = row_ids(train_set), row_ids(test_set)
    assert set(train_ids).isdisjoint(test_ids)
    assert sorted(np.concatenate([train_ids, test_ids])) == list(range(ds.n_rows))
    # each row keeps its label
    assert np.array_equal(train_set.y, ds.y[train_ids])
    assert np.array_equal(test_set.y, ds.y[test_ids])
    for cls in (0, 1):
        n_class = int(np.sum(ds.y == cls))
        n_train = int(np.sum(train_set.y == cls))
        assert 0 <= n_train - fraction * n_class < 1


@PROPERTY_SETTINGS
@given(labelled_rows(), st.integers(0, 2**64 - 1))
def test_balance_gives_equal_classes_and_keeps_row_order(ds, seed):
    balanced = balance_downsample(ds, SeededRng(seed))
    controls, fasd = balanced.class_counts()
    assert controls == fasd == min(ds.class_counts())
    ids = row_ids(balanced)
    assert np.all(np.diff(ids) > 0)  # original order, no repeats
    assert np.array_equal(balanced.y, ds.y[ids])
    assert np.array_equal(balanced.x, ds.x[ids])


# ------------------------------------------------ float text and CSV oracles


def _edge_floats():
    """Every value where repr's and orjson's layouts part or could part:
    the non-finite values, +-0.0, the subnormal and normal extremes,
    every representable 10**k and 2**e, and 1e-4 and 1e16 (repr's
    exponent thresholds) with their neighbours, each with both signs."""
    values = [math.nan, math.inf, 0.0, 5e-324, 2.2250738585072014e-308,
              math.nextafter(2.2250738585072014e-308, 0.0),
              1.7976931348623157e308]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    for edge in (1e-4, 1e16):
        values += [math.nextafter(edge, 0.0), edge,
                   math.nextafter(edge, math.inf)]
    return values + [-v for v in values]


EDGE_FLOATS = _edge_floats()


def _repr_texts(a):
    return ",".join(map(float.__repr__, a.tolist()))


def _texts_per_value(a):
    """_float_text_rows's texts of a 1-D array's values, joined; each
    value is a row of its own, so repr formats the odd values alone and
    orjson every other one."""
    return ",".join(data._float_text_rows(a.reshape(-1, 1),
                                          data._CSV_BLOCK_CELLS))


def test_float_texts_are_repr_on_every_edge_value_and_binade():
    edges = np.array(EDGE_FLOATS)
    assert _texts_per_value(edges) == _repr_texts(edges)
    rng = np.random.default_rng(10)
    # 40 random mantissas in each of the 2,098 binades, and Glorot-like
    # weights, where about 1 in 2,000 needs repr's exponent
    binades = np.ldexp(rng.uniform(1.0, 2.0, size=(2098, 40)),
                       np.arange(-1074, 1024)[:, None]).ravel()
    binades[::2] *= -1.0
    weights = rng.uniform(-0.3, 0.3, size=100_000)
    for a in (binades, weights):
        assert _texts_per_value(a) == _repr_texts(a)


@PROPERTY_SETTINGS
@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                                     st.floats())),
       st.sampled_from(["=", ">"]), st.integers(1, 3))
def test_float_texts_equal_repr_for_any_layout(a, byte_order, stride):
    # big-endian and strided inputs are formatted by value, like tolist()
    a = a.astype(byte_order + "f8")[::stride]
    assert _texts_per_value(a) == _repr_texts(a)


@st.composite
def float_matrices(draw):
    """A float64 matrix in any layout (big-endian, strided, transposed,
    Fortran order), with odd cells (see data._odd_cells) anywhere,
    including the first and last row of a block."""
    a = draw(hnp.arrays(np.float64, hnp.array_shapes(
        min_dims=2, max_dims=2, min_side=1, max_side=9),
        elements=st.one_of(FINITE, st.floats(-1e3, 1e3))))
    for _ in range(draw(st.integers(0, 3))):
        a[draw(st.integers(0, len(a) - 1)),
          draw(st.integers(0, a.shape[1] - 1))] = draw(
            st.sampled_from(EDGE_FLOATS))
    a = a.astype(draw(st.sampled_from(["=", ">"])) + "f8")
    layout = draw(st.sampled_from(["C", "F", "T", "strided"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "T":
        a = a.T
    elif layout == "strided":
        a = a[::draw(st.integers(1, 3)), ::draw(st.integers(1, 3))]
    return a


@PROPERTY_SETTINGS
@given(float_matrices(), st.integers(1, 30))
# odd cells in the first and the last row of a two-row block
@example(np.array([[1e-05, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, math.inf]]), 4)
def test_float_text_rows_are_repr_joined_per_row(a, cells):
    # cells below a row's width make one-row blocks
    want = [",".join(map(repr, row)) for row in a.tolist()]
    assert list(data._float_text_rows(a, cells)) == want


def _csv_text_oracle(ds):
    """write_csv's text as it was written cell by cell with repr."""
    lines = [",".join(ds.feature_names) + ",label"]
    for i in range(ds.n_rows):
        cells = [repr(float(v)) for v in ds.x[i]] + [str(int(ds.y[i]))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_write_csv_refuses_a_dataset_without_features(tmp_path):
    # its file would hold bare labels, which load_csv cannot read back
    ds = synthesize_dataset(3, 2, 1.0, SeededRng(0))
    path = tmp_path / "none.csv"
    with pytest.raises(DataError, match=f"{path}: a dataset without features has no CSV form"):
        write_csv(drop_features(ds, ds.feature_names), path)
    assert not path.exists()


def _write_text(ds, path):
    write_csv(ds, path)
    return path.read_text(encoding="utf-8")


def test_write_csv_text_is_per_cell_repr_across_blocks(tmp_path):
    # 300 x 48 cells span four blocks, the last one partial
    ds = synthesize_dataset(150, 48, 2e15, SeededRng(4))
    assert _write_text(ds, tmp_path / "s.csv") == _csv_text_oracle(ds)


@PROPERTY_SETTINGS
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                min_side=0, max_side=8),
                  elements=st.one_of(
                      st.sampled_from([v for v in EDGE_FLOATS
                                       if math.isfinite(v)]),
                      FINITE)),
       st.integers(1, 20), st.data())
def test_write_csv_text_is_per_cell_repr(x, block, data_):
    y = np.array(data_.draw(st.lists(st.sampled_from([0, 1]),
                                     min_size=len(x), max_size=len(x))),
                 dtype=np.int64)
    ds = Dataset("synthetic", tuple(f"f{j}" for j in range(x.shape[1])), x, y)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_CSV_BLOCK_CELLS", block):
        if not x.shape[1]:  # see the test above
            with pytest.raises(DataError):
                write_csv(ds, Path(tmp) / "x.csv")
            return
        assert _write_text(ds, Path(tmp) / "x.csv") == _csv_text_oracle(ds)


def _load_csv_oracle(path, battery):
    """load_csv as it parsed every cell on its own, kept as the oracle
    for the one-map-per-row parse; lines end at LF, CR LF or CR."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text:
        raise ParseError(f"{path}: file is empty")
    lines = re.split("\r\n|\r|\n", text)
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "label":
        raise SchemaError(
            f"{path}: final header column must be 'label', got "
            f"{header[-1] if header else 'nothing'!r}"
        )
    feature_names = tuple(name.strip() for name in header[:-1])
    rows, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"{path}: line {lineno} has {len(cells)} cells, expected "
                f"{len(header)}"
            )
        values = []
        for col, cell in zip(header[:-1], cells[:-1]):
            text = cell.strip()
            if not text:
                raise ParseError(
                    f"{path}: line {lineno}, column {col!r}: missing value"
                )
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {col!r}: "
                    f"non-numeric cell {text!r}"
                ) from None
        try:
            label = float(cells[-1].strip())
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}, column 'label': non-numeric cell "
                f"{cells[-1].strip()!r}"
            ) from None
        if label not in (0.0, 1.0):
            raise DataError(
                f"{path}: line {lineno}: label must be 0 or 1, got {label}"
            )
        rows.append(values)
        labels.append(int(label))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    x = np.array(rows)
    if not np.isfinite(x).all():
        row, col = np.argwhere(~np.isfinite(x))[0]
        lineno = [
            n for n, line in enumerate(lines[1:], start=2) if line.strip()
        ][row]
        cell = lines[lineno - 1].split(",")[col].strip()
        raise ParseError(
            f"{path}: line {lineno}, column {feature_names[col]!r}: "
            f"non-finite cell {cell!r}"
        )
    return Dataset(battery, feature_names, x, np.array(labels))


# JSON_PADDING is whitespace both float() and JSON skip; the rest of
# PADDING only float() skips, which keeps a block off the orjson parse
JSON_PADDING = st.sampled_from(["", " ", "\t", " \t"])
PADDING = st.sampled_from(["", " ", "\t", "\x0b", "\x1c", "\x1f", "\x85",
                          "\u2028", "\u3000", " \t"])


@st.composite
def long_decimals(draw):
    """17-40 significant digits, more than a double holds, with a point
    and an exponent anywhere."""
    digits = draw(st.text("0123456789", min_size=17, max_size=40))
    point = draw(st.integers(1, len(digits) - 1))
    exponent = draw(st.sampled_from(["", f"e{draw(st.integers(-350, 330))}"]))
    sign = draw(st.sampled_from(["", "-"]))
    whole = digits[:point].lstrip("0") or "0"  # JSON has no leading zeros
    return f"{sign}{whole}.{digits[point:]}{exponent}"


@st.composite
def near_halfway(draw):
    """The midpoint of two neighbouring doubles, exact where it has at
    most 17-40 digits and rounded to them otherwise, so just above or
    below the tie."""
    low = draw(st.floats(allow_nan=False, allow_infinity=False,
                         max_value=1.7e308))
    high = math.nextafter(low, math.inf)
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # holds every midpoint exactly
        mid = (decimal.Decimal(low) + decimal.Decimal(high)) / 2
        return format(mid, f".{draw(st.integers(16, 39))}e")


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    long_decimals(),
    near_halfway(),
    # signed zeros: orjson reads the integer -0 as 0, float() as -0.0
    st.sampled_from(["-0", "-0e0", "-0.0", "0e5"]),
    # integers beyond 2**53 and int64, and the ends of the double range
    st.sampled_from([str(2**53 + 1), str(2**63), str(2**64 + 1),
                     str(10**25), "1e400", "-1e400", "4.9e-324",
                     "2.4703282292062328e-324"]),
)
# numbers float() reads and JSON does not
FLOAT_ONLY = ["1_000", "-1_0.5", ".5", "+2.", "nan", "inf", "-Infinity",
              "NaN"]
# JSON that is not a number, which float() refuses
JSON_TOKENS = ["true", "false", "null", '"1"', "[1]", "{}"]
BAD_CELLS = ["", "  ", "\u3000", "abc", "1 2", "--1", "1__0", "0x10"]
BAD_LABELS = ["2", "-1", "0.5", "x", "", "nan"]


@st.composite
def csv_texts(draw):
    """A header of 1-3 features and rows that are mostly well formed
    (padded JSON numbers), with blank lines, float()-only numbers,
    malformed and missing cells, bad labels, wrong widths, a JSON token
    in an otherwise good row and a row that splices JSON brackets mixed
    in. Two files in three pad with JSON whitespace only, so that whole
    blocks can take orjson's parse."""
    padding = draw(st.sampled_from([JSON_PADDING, JSON_PADDING, PADDING]))
    number_cell = st.tuples(padding, NUMBER, padding).map("".join)
    good_label = st.tuples(
        padding, st.sampled_from(["0", "1", "1.0", "0e0", "-0", "-0.0"]),
        padding).map("".join)
    feature_cell = st.one_of(
        number_cell,
        st.tuples(padding, st.sampled_from(FLOAT_ONLY), padding).map("".join),
        st.sampled_from(BAD_CELLS))
    label_cell = st.one_of(good_label, st.sampled_from(BAD_LABELS))
    width = draw(st.integers(1, 3))
    lines = [",".join(f"c{j}" for j in range(width)) + ",label"]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["good"] * 8 + [
            "any", "blank", "width", "json", "splice"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t  "])))
            continue
        if kind == "splice":
            lines.append("1,0],[1,0")
            continue
        good = kind in ("good", "json")
        cells = draw(st.lists(number_cell if good else feature_cell,
                              min_size=width, max_size=width))
        cells.append(draw(good_label if good else label_cell))
        if kind == "width":
            cells = cells[:draw(st.integers(0, width - 1))] + (
                cells[:1] * draw(st.integers(0, 2))) + cells[-1:]
        if kind == "json":
            cells[draw(st.integers(0, width))] = draw(
                st.sampled_from(JSON_TOKENS))
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(load, path):
    try:
        ds = load(path, "synthetic")
    except (DataError, ParseError, SchemaError) as err:
        return type(err), str(err)
    return ds.feature_names, ds.x.tobytes(), ds.x.shape, ds.y.tobytes()


@PROPERTY_SETTINGS
@given(csv_texts(), st.integers(1, 12))
# the first error in a later block, after a non-finite cell in the first
@example("c0,label\n1.5,0\ninf,1\n0.25,0\n3e2,1\nx,0\n", 4)
# blocks that only one of _json_rows' checks keeps off orjson's parse:
# a JSON token, an integer -0, a bad label, short rows
@example("c0,label\ntrue,0\n", 2)
@example("c0,label\n-0,1\n", 2)
@example("c0,label\n1,2\n", 2)
@example("c0,c1,label\n1,0\n2,1\n", 12)
# a bad cell before a wrong-width row, in one block and in two
@example("c0,c1,label\n1,2,0\noops,2,1\n1,0\n", 9)
@example("c0,c1,label\n1,2,0\noops,2,1\n1,0\n", 3)
def test_load_csv_equals_the_per_cell_parse(text, block):
    # block: cells per block, so files span several blocks of rows
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_CSV_BLOCK_CELLS", block):
        path = Path(tmp) / "x.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(load_csv, path) == _outcome(_load_csv_oracle, path)
