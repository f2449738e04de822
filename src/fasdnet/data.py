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

import re
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
    """Train fraction in (0, 1) and shuffle seed."""

    train_fraction: float
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
    non-finite (nan, inf) cell, and any byte that is not UTF-8, is an
    error naming its line and column; imputation is deliberately not
    performed here. Lines end at LF, CR LF or CR only:
    str.splitlines()'s other breaks are cell padding.

    A cell's value is the double float() reads from its stripped text.
    Blocks of up to _CSV_BLOCK_CELLS cells are parsed by one orjson call
    where _json_rows accepts them, the rest row by row with float(),
    which alone raises errors: the first error in file order, and its
    text, do not depend on which blocks orjson parsed.
    """
    if battery not in BATTERIES:
        raise DataError(f"unknown battery {battery!r}")
    text = _read_utf8(path)
    if not text:
        raise ParseError(f"{path}: file is empty")
    lines = _lines(text)
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

    linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
    if not linenos:
        raise ParseError(f"{path}: no data rows")
    x = np.empty((len(linenos), len(feature_names)))
    y = np.empty(len(linenos))
    block = max(1, _CSV_BLOCK_CELLS // len(header))
    for start in range(0, len(linenos), block):
        block_linenos = linenos[start:start + block]
        values = _json_rows([lines[n - 1] for n in block_linenos], len(header))
        if values is not None:
            x[start:start + block] = values[:, :-1]
            y[start:start + block] = values[:, -1]
            continue
        for row, lineno in enumerate(block_linenos, start):
            cells = lines[lineno - 1].split(",")
            if len(cells) != len(header):
                raise ParseError(
                    f"{path}: line {lineno} has {len(cells)} cells, expected "
                    f"{len(header)}"
                )
            try:
                # float() keeps U+001C-U+001F, which str.strip() strips
                x[row] = list(map(float, cells[:-1]))
            except ValueError:
                x[row] = _stripped_cells(path, lineno, header, cells)
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
            y[row] = label

    if not np.isfinite(x).all():
        # located only on failure, so valid files pay for one scan
        row, col = np.argwhere(~np.isfinite(x))[0]
        lineno = linenos[row]
        cell = lines[lineno - 1].split(",")[col].strip()
        raise ParseError(
            f"{path}: line {lineno}, column {feature_names[col]!r}: "
            f"non-finite cell {cell!r}"
        )
    if schema is not None and len(x) != schema.expected_rows:
        warnings.warn(
            f"{path}: battery {battery!r} usually has {schema.expected_rows} "
            f"rows, found {len(x)} (accepted as a subset)",
            stacklevel=2,
        )
    return Dataset(battery, feature_names, x, y)


def _read_utf8(path) -> str:
    """The text of a UTF-8 file, read as bytes and decoded once. A byte
    that is not UTF-8 is a ParseError naming its line and column, found
    in the valid text before it: a data cell is named from the header,
    a header cell by number. The bytes are freed on return."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    lines = _lines(raw[:start].decode("utf-8"))
    names = [name.strip() for name in lines[0].split(",")]
    col = lines[-1].count(",")
    column = (repr(names[col]) if len(lines) > 1 and col < len(names)
              else str(col + 1))
    raise ParseError(
        f"{path}: line {len(lines)}, column {column}: byte "
        f"0x{raw[start]:02x} is not UTF-8"
    )


def _lines(text: str) -> list[str]:
    """The lines of a text, ended at LF, CR LF or CR."""
    if "\r" in text:  # one scan, where each replace() scans again
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


# the bytes of a block of rows that hold only JSON numbers: digits,
# exponents, signs, points, commas, and the whitespace both JSON and
# float() skip
_NUMBER_BYTES = b"0123456789eE+-., \t"
# an integer -0: float() reads -0.0, orjson the int 0
_NEGATIVE_ZERO_INT = re.compile(rb"-0(?![0-9.eE])")


def _json_rows(rows: list[str], width: int) -> np.ndarray | None:
    """The (len(rows), width) values of comma-separated rows from one
    orjson parse, or None where they could differ from float()'s.

    orjson reads a JSON number to the correctly rounded double, as
    float() does (Clinger, PLDI 1990). The rows are parsed as
    "[[row],[row],...]"; with only _NUMBER_BYTES in them no JSON
    literal, string or bracket can appear, so (rows, width) numbers
    mean that every cell held one number. An integer -0 (orjson reads
    0), a label other than 0 or 1, and whatever orjson refuses (leading
    zeros or points, empty cells, doubles beyond range) give None.
    """
    import orjson  # see _float_text_rows

    text = ("[[" + "],[".join(rows) + "]]").encode()
    if (text.translate(None, _NUMBER_BYTES)
            != b"[[" + b"][" * (len(rows) - 1) + b"]]"
            or _NEGATIVE_ZERO_INT.search(text)):
        return None
    try:
        values = np.array(orjson.loads(text), dtype=np.float64)
    except ValueError:  # orjson's JSONDecodeError, or rows of unequal width
        return None
    if (values.shape != (len(rows), width)
            or not np.isin(values[:, -1], (0.0, 1.0)).all()):
        return None
    return values


def _stripped_cells(path, lineno: int, header: list[str],
                    cells: list[str]) -> list[float]:
    """The feature cells of a row, each parsed after str.strip(); the
    first missing (empty or blank) or non-numeric cell is a ParseError
    naming it."""
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
    return values


def write_csv(ds: Dataset, path) -> None:
    """Write the dataset in the load_csv contract; round-trips bit-exactly.

    Each float is written as repr writes it: the shortest text that
    parses back to the same double. _float_text_rows produces each
    row's comma-joined text from one orjson dump per block of rows, and
    the rows go to the file with their labels as they come, so no
    whole-file string is built. A dataset without feature columns, which
    load_csv cannot read back, is a DataError.
    """
    if not ds.n_features:
        raise DataError(f"{path}: a dataset without features has no CSV form")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(ds.feature_names) + ",label\n")
        fh.writelines(
            f"{row},{label}\n"
            for row, label in zip(_float_text_rows(ds.x, _CSV_BLOCK_CELLS),
                                  ds.y.tolist())
        )


# cells per block of CSV text, formatted by one orjson dump in
# _float_text_rows or parsed by one _json_rows call: enough to spread a
# call's fixed cost (about 10 us) thin, few enough that the block's
# texts and values stay a few hundred KB (at 1 << 16, data-io's peak
# RSS rose by 10 MB when writing; loading 10,000 x 48 cells took the
# same time from 1 << 11 to 1 << 14 cells a block)
_CSV_BLOCK_CELLS = 1 << 12


def _float_text_rows(a: np.ndarray, cells: int):
    """Each row of a 2-D float array with columns as the comma-joined
    float.__repr__ texts of its cells, from one orjson call per block
    of whole rows: up to the given number of cells, or one row where a
    row is wider.

    orjson writes the block as "[[row],[row],...]", each double with Ryu
    (Adams, PLDI 2018): the shortest digits that parse back to the same
    double, and of those the nearest to it, which are the digits repr
    writes. The texts differ only where repr writes an exponent, below
    1e-4 and from 1e16 up in magnitude (orjson: 0.00001 and 1e16, repr:
    1e-05 and 1e+16), and for nan and inf, which orjson writes as null.
    One vectorized mask, _odd_cells, finds the rows that hold such a
    cell, and repr formats those rows; about 1 in 2,000 Glorot weights
    is one.
    """
    # imported here, as _map_specs imports multiprocessing, so that
    # importing fasdnet does not load it
    import orjson

    block = max(1, cells // a.shape[1])
    for start in range(0, len(a), block):
        b = np.ascontiguousarray(a[start:start + block], dtype=np.float64)
        text = orjson.dumps(b, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        rows = text[2:-2].split("],[")
        for i in np.flatnonzero(_odd_cells(b).any(axis=1)).tolist():
            rows[i] = ",".join(map(float.__repr__, b[i].tolist()))
        yield from rows


def _odd_cells(a: np.ndarray) -> np.ndarray:
    """Where orjson's text of a float64 differs from repr's: below 1e-4
    or from 1e16 up in magnitude, except +-0.0, and nan and inf."""
    magnitude = np.abs(a)
    return ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (a != 0.0)


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

    Each class is allocated separately, rounding the train share up, so
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
    for cls in (0, 1):
        idx = np.flatnonzero(ds.y == cls)
        order = rng.shuffle(len(idx))
        n_train = int(np.ceil(spec.train_fraction * len(idx)))
        train_idx.extend(idx[order[:n_train]])
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
    6 makes a single-feature threshold nearly perfect. A separation that
    is not finite, or so large that a feature overflows, is a DataError.
    """
    if n_per_class < 1 or n_features < 1:
        raise DataError(
            f"need n_per_class >= 1 and n_features >= 1, got "
            f"{n_per_class}, {n_features}"
        )
    scales = np.array([1.0 if j % 2 == 0 else 10.0 for j in range(n_features)])
    offsets = np.array([0.0 if j % 2 == 0 else 70.0 for j in range(n_features)])
    y = np.repeat(np.array([0, 1], dtype=np.int64), n_per_class)
    # row-major draws; x = offsets + scales * (shift + z), built in place
    x = rng.normals(y.size * n_features).reshape(y.size, n_features)
    with np.errstate(over="ignore", invalid="ignore"):
        x += (class_separation * y)[:, None]
        x *= scales
        x += offsets
    if not np.isfinite(x).all():
        raise DataError(
            f"class_separation {class_separation!r} makes the features "
            "non-finite; it must be finite and small enough not to overflow"
        )
    names = tuple(f"f{j:02d}" for j in range(n_features))
    return Dataset(SYNTHETIC, names, x, y)
