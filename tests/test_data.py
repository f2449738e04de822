"""Dataset ingestion, schema, balancing, splitting, and synthesis tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
       st.floats(0.01, 0.99), st.integers(0, 2**64 - 1), st.booleans())
def test_split_is_a_disjoint_exhaustive_partition(ds, fraction, seed,
                                                  stratified):
    train_set, test_set = stratified_split(
        ds, SplitSpec(fraction, stratified=stratified, seed=seed))
    train_ids, test_ids = row_ids(train_set), row_ids(test_set)
    assert set(train_ids).isdisjoint(test_ids)
    assert sorted(np.concatenate([train_ids, test_ids])) == list(range(ds.n_rows))
    # each row keeps its label
    assert np.array_equal(train_set.y, ds.y[train_ids])
    assert np.array_equal(test_set.y, ds.y[test_ids])
    if stratified:
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
