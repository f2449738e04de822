"""Dataset ingestion, validation, balancing, splitting, and synthesis.

Five real test batteries are supported, each a fixed-width numeric CSV.
The file contract: UTF-8, comma separated, decimal point, one header
row, every feature cell numeric, and the final column named "label"
holding 0 (control) or 1 (FASD). Columns named exactly "sex" (0/1) and
"age" (years) are ordinary features but can be targeted by name for
ablation runs.

The battery schemas pin the expected feature count per battery; a file
with the wrong width is rejected. Row counts are advisory (a warning,
not an error) so subsets of a battery can still be loaded.

Real battery files are external inputs; the repository ships only this
loader plus a synthetic generator that mimics the batteries' awkward
mix of feature scales (some columns near single digits, some near 100).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    ParseError,
    SchemaError,
    UnknownFeatureError,
)
from .matrix import as_matrix
from .rng import SeededRng

PSYCHOMETRIC = "psychometric"
ANTISACCADE = "antisaccade"
PROSACCADE = "prosaccade"
MEMORY_GUIDED = "memory-guided"
DTI = "dti"
SYNTHETIC = "synthetic"

BATTERIES = (PSYCHOMETRIC, ANTISACCADE, PROSACCADE, MEMORY_GUIDED, DTI, SYNTHETIC)


@dataclass(frozen=True)
class BatterySchema:
    battery: str
    expected_feature_count: int
    expected_rows: int


SCHEMAS = {
    PSYCHOMETRIC: BatterySchema(PSYCHOMETRIC, 20, 129),
    ANTISACCADE: BatterySchema(ANTISACCADE, 15, 174),
    PROSACCADE: BatterySchema(PROSACCADE, 18, 186),
    MEMORY_GUIDED: BatterySchema(MEMORY_GUIDED, 26, 154),
    DTI: BatterySchema(DTI, 48, 76),
}


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus binary labels (1 = FASD, 0 = control)."""

    battery: str
    feature_names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.battery not in BATTERIES:
            raise DataError(f"unknown battery {self.battery!r}")
        object.__setattr__(self, "x", as_matrix(self.x))
        y = np.asarray(self.y)
        if y.ndim != 1 or y.shape[0] != self.x.shape[0]:
            raise DataError(
                f"labels must be one per row: x has {self.x.shape[0]} rows, "
                f"y has shape {y.shape}"
            )
        if not np.all(np.isin(y, (0, 1))):
            raise DataError("labels must be 0 or 1")
        object.__setattr__(self, "y", y.astype(np.int64))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(self.feature_names) != self.x.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for "
                f"{self.x.shape[1]} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(controls, FASD) row counts."""
        return int(np.sum(self.y == 0)), int(np.sum(self.y == 1))


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction in (0, 1), stratification flag, and shuffle seed."""

    train_fraction: float
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def load_csv(path, battery: str) -> Dataset:
    """Parse a battery CSV, validating the column layout.

    The final header column must be "label". Feature column counts must
    match the battery schema exactly (synthetic accepts any width), and
    header names must be distinct. Any missing, non-numeric or
    non-finite (nan, inf) cell is an error naming its line and column;
    imputation is deliberately not performed here.
    """
    if battery not in BATTERIES:
        raise DataError(f"unknown battery {battery!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: file is empty")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "label":
        raise SchemaError(
            f"{path}: final header column must be 'label', got "
            f"{header[-1] if header else 'nothing'!r}"
        )
    feature_names = tuple(name.strip() for name in header[:-1])
    seen = set()
    for name in feature_names + ("label",):
        if name in seen:
            raise SchemaError(
                f"{path}: line 1, column {name!r}: duplicate header name"
            )
        seen.add(name)
    schema = SCHEMAS.get(battery)
    if schema is not None and len(feature_names) != schema.expected_feature_count:
        raise SchemaError(
            f"{path}: battery {battery!r} expects "
            f"{schema.expected_feature_count} feature columns, found "
            f"{len(feature_names)}"
        )

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
        # located only on failure, so valid files pay for one scan
        row, col = np.argwhere(~np.isfinite(x))[0]
        lineno = [
            n for n, line in enumerate(lines[1:], start=2) if line.strip()
        ][row]
        cell = lines[lineno - 1].split(",")[col].strip()
        raise ParseError(
            f"{path}: line {lineno}, column {feature_names[col]!r}: "
            f"non-finite cell {cell!r}"
        )
    if schema is not None and len(rows) != schema.expected_rows:
        warnings.warn(
            f"{path}: battery {battery!r} usually has {schema.expected_rows} "
            f"rows, found {len(rows)} (accepted as a subset)",
            stacklevel=2,
        )
    return Dataset(battery, feature_names, x, np.array(labels))


def write_csv(ds: Dataset, path) -> None:
    """Write the dataset in the load_csv contract; round-trips bit-exactly.

    Floats use repr (shortest text that parses back to the same double).
    """
    lines = [",".join(ds.feature_names) + ",label"]
    for i in range(ds.n_rows):
        cells = [repr(float(v)) for v in ds.x[i]] + [str(int(ds.y[i]))]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def drop_features(ds: Dataset, names) -> Dataset:
    """Copy without the named columns; order of the rest is preserved."""
    drop = set(names)
    unknown = drop - set(ds.feature_names)
    if unknown:
        raise UnknownFeatureError(
            f"dataset has no feature(s) {sorted(unknown)}; available: "
            f"{list(ds.feature_names)}"
        )
    keep = [i for i, name in enumerate(ds.feature_names) if name not in drop]
    return Dataset(
        ds.battery,
        tuple(ds.feature_names[i] for i in keep),
        ds.x[:, keep],
        ds.y,
    )


def balance_downsample(ds: Dataset, rng: SeededRng) -> Dataset:
    """Equalize class counts by randomly removing majority-class rows.

    Minority rows are untouched; surviving rows keep their original
    order. Feature values are never altered, only row membership.
    """
    controls, fasd = ds.class_counts()
    if controls == 0 or fasd == 0:
        raise DataError(
            f"both classes must be present to balance, got control={controls} "
            f"FASD={fasd}"
        )
    if controls == fasd:
        return ds
    majority = 0 if controls > fasd else 1
    target = min(controls, fasd)
    maj_idx = np.flatnonzero(ds.y == majority)
    order = rng.shuffle(len(maj_idx))
    kept_majority = maj_idx[order[:target]]
    keep = np.sort(
        np.concatenate([np.flatnonzero(ds.y != majority), kept_majority])
    )
    return Dataset(ds.battery, ds.feature_names, ds.x[keep], ds.y[keep])


def stratified_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Shuffle-split into disjoint, exhaustive train/test partitions.

    Stratified mode allocates per class, rounding the train share up, so
    class proportions in each partition stay within one sample of the
    overall proportions. Deterministic for a given spec.seed.
    """
    for cls in (0, 1):
        if int(np.sum(ds.y == cls)) < 2:
            raise DataError(
                f"class {cls} has fewer than 2 samples; cannot split"
            )
    rng = SeededRng(spec.seed)
    train_idx = []
    if spec.stratified:
        for cls in (0, 1):
            idx = np.flatnonzero(ds.y == cls)
            order = rng.shuffle(len(idx))
            n_train = int(np.ceil(spec.train_fraction * len(idx)))
            train_idx.extend(idx[order[:n_train]])
    else:
        order = rng.shuffle(ds.n_rows)
        n_train = int(np.ceil(spec.train_fraction * ds.n_rows))
        train_idx.extend(order[:n_train])
    train_mask = np.zeros(ds.n_rows, dtype=bool)
    train_mask[np.asarray(train_idx, dtype=np.int64)] = True

    def take(mask):
        rows = np.flatnonzero(mask)
        return Dataset(ds.battery, ds.feature_names, ds.x[rows], ds.y[rows])

    return take(train_mask), take(~train_mask)


def synthesize_dataset(n_per_class: int, n_features: int,
                       class_separation: float, rng: SeededRng) -> Dataset:
    """Two Gaussian class clouds with deliberately mixed feature scales.

    Even-indexed features sit near 0 with unit spread; odd-indexed ones
    sit near 70 with spread 10, reproducing the batteries' pathology of
    small-range and large-range columns side by side. Class 1's mean is
    shifted by class_separation standard deviations on every feature,
    so separation 0 makes the classes indistinguishable and separation
    6 makes a single-feature threshold nearly perfect.
    """
    if n_per_class < 1 or n_features < 1:
        raise DataError(
            f"need n_per_class >= 1 and n_features >= 1, got "
            f"{n_per_class}, {n_features}"
        )
    scales = np.array([1.0 if j % 2 == 0 else 10.0 for j in range(n_features)])
    offsets = np.array([0.0 if j % 2 == 0 else 70.0 for j in range(n_features)])
    x = np.empty((2 * n_per_class, n_features))
    y = np.empty(2 * n_per_class, dtype=np.int64)
    for i in range(2 * n_per_class):
        cls = 0 if i < n_per_class else 1
        shift = class_separation * cls
        for j in range(n_features):
            x[i, j] = offsets[j] + scales[j] * (shift + rng.next_normal())
        y[i] = cls
    names = tuple(f"f{j:02d}" for j in range(n_features))
    return Dataset(SYNTHETIC, names, x, y)
