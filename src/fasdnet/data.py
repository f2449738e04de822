"""Dataset ingestion, validation, balancing, splitting, and synthesis.

Five real test batteries are supported, each a fixed-width numeric CSV
under README's data contract, whose widths the battery schemas pin.
Columns named "sex" and "age" are ordinary features that ablation runs
can name.

Real battery files are external inputs; the repository ships only this
loader plus a synthetic generator that mimics the batteries' awkward
mix of feature scales (some columns near single digits, some near 100).
"""

from __future__ import annotations

import itertools
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
    expected_feature_count: int
    expected_rows: int


SCHEMAS = {
    PSYCHOMETRIC: BatterySchema(20, 129),
    ANTISACCADE: BatterySchema(15, 174),
    PROSACCADE: BatterySchema(18, 186),
    MEMORY_GUIDED: BatterySchema(26, 154),
    DTI: BatterySchema(48, 76),
}


def _is_binary(a: np.ndarray) -> np.ndarray:
    """Where a holds 0 or 1: np.isin(a, (0, 1))'s mask on int, float,
    bool, str and object arrays, from two comparisons."""
    return (a == 0) | (a == 1)


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
        if not _is_binary(y).all():
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

    A UTF-8 byte-order mark, which spreadsheet "CSV UTF-8" exports
    write, is not part of the first column's name.

    A cell's value is the double float() reads from its stripped text.
    The file is read as a stream, a block of up to _CSV_BLOCK_CELLS
    cells at a time, so a load holds the dataset plus one block, never
    the whole file. A block is the handle's lines as they come, each
    line end kept as JSON whitespace, parsed by one orjson call where
    _json_rows accepts it, otherwise by _float_rows: each cell stripped,
    then parsed once by float(), which alone raises errors. So the
    accepted values, the first error in file order and its text do not
    depend on which blocks orjson parsed. A byte that is not
    UTF-8 anywhere in the file wins over any other error, and a
    non-finite cell is raised only once every row has parsed.
    """
    if battery not in BATTERIES:
        raise DataError(f"unknown battery {battery!r}")
    schema = SCHEMAS.get(battery)
    try:
        # universal newlines end lines at exactly LF, CR LF and CR
        with open(path, encoding="utf-8-sig", newline=None) as fh:
            feature_names, x, y = _read_rows(path, battery, schema, fh)
    except (UnicodeDecodeError, DataError):
        _read_utf8(path)
        raise
    if schema is not None and len(x) != schema.expected_rows:
        warnings.warn(
            f"{path}: battery {battery!r} usually has {schema.expected_rows} "
            f"rows, found {len(x)} (accepted as a subset)",
            stacklevel=2,
        )
    return Dataset(battery, feature_names, x, y)


def _read_rows(path, battery: str, schema: BatterySchema | None,
               fh) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """load_csv's feature names, x and y from the lines of a text
    handle, read a block at a time."""
    first = fh.readline()
    if not first:
        raise ParseError(f"{path}: file is empty")
    header = first.rstrip("\n").split(",")
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
    if schema is not None and len(feature_names) != schema.expected_feature_count:
        raise SchemaError(
            f"{path}: battery {battery!r} expects "
            f"{schema.expected_feature_count} feature columns, found "
            f"{len(feature_names)}"
        )

    width = len(header)
    block = max(1, _CSV_BLOCK_CELLS // width)
    blocks = []
    non_finite = None  # the first, raised once every row has parsed
    lineno = 2  # of the block's first line
    while rows := list(itertools.islice(fh, block)):
        linenos = range(lineno, lineno + len(rows))
        lineno += len(rows)
        values = _json_rows(rows, width)
        if values is None:
            # the handle never yields "", so a blank line is all space
            numbered = [(n, row) for n, row in zip(linenos, rows)
                        if not row.isspace()]
            if not numbered:
                continue
            linenos, rows = zip(*numbered)
            values = _float_rows(path, header, linenos, rows)
        # labels are 0 or 1, so only a feature cell can be non-finite
        if non_finite is None and not np.isfinite(values).all():
            row, col = np.argwhere(~np.isfinite(values))[0]
            cell = rows[row].split(",")[col].strip()
            non_finite = ParseError(
                f"{path}: line {linenos[row]}, column {feature_names[col]!r}: "
                f"non-finite cell {cell!r}"
            )
        blocks.append(values)
    if not blocks:
        raise ParseError(f"{path}: no data rows")
    if non_finite is not None:
        raise non_finite
    x = np.concatenate([values[:, :-1] for values in blocks])
    y = np.concatenate([values[:, -1] for values in blocks])
    return feature_names, x, y


def _float_rows(path, header: list[str], linenos, rows) -> np.ndarray:
    """The (len(rows), len(header)) values of a block of rows, each cell
    stripped, then parsed by float(); the first malformed cell or row is
    the error."""
    values = np.empty((len(rows), len(header)))
    for row, lineno, text in zip(values, linenos, rows):
        cells = text.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"{path}: line {lineno} has {len(cells)} cells, expected "
                f"{len(header)}"
            )
        try:
            row[:] = list(map(float, map(str.strip, cells)))
        except ValueError:
            for col, cell in zip(header, map(str.strip, cells)):
                try:
                    float(cell)
                except ValueError:
                    # an empty label is as non-numeric as any other
                    problem = ("missing value" if not cell and col != "label"
                               else f"non-numeric cell {cell!r}")
                    raise ParseError(f"{path}: line {lineno}, column {col!r}: "
                                     f"{problem}") from None
        if row[-1] not in (0.0, 1.0):
            raise DataError(
                f"{path}: line {lineno}: label must be 0 or 1, got {row[-1]}"
            )
    return values


def _read_utf8(path) -> None:
    """Raise a ParseError if the file holds a byte that is not UTF-8,
    naming the first one's line and column, found in the valid text
    before it (a byte-order mark dropped): a data cell is named from the
    header, a header cell by number. load_csv reads the whole file here
    only on its error paths, so that such a byte anywhere wins over any
    other error."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
        return
    except UnicodeDecodeError as exc:
        start = exc.start
    text = raw[:start].decode("utf-8-sig")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    names = [name.strip() for name in lines[0].split(",")]
    col = lines[-1].count(",")
    column = (repr(names[col]) if len(lines) > 1 and col < len(names)
              else str(col + 1))
    raise ParseError(
        f"{path}: line {len(lines)}, column {column}: byte "
        f"0x{raw[start]:02x} is not UTF-8"
    ) from None


# the bytes of a block of lines that hold only JSON numbers: digits,
# exponents, signs, points, commas, and the whitespace both JSON and
# float() skip, the line end included
_NUMBER_BYTES = b"0123456789eE+-., \t\n"
# an integer -0: float() reads -0.0, orjson the int 0
_NEGATIVE_ZERO_INT = re.compile(rb"-0(?![0-9.eE])")


def _json_rows(rows: list[str], width: int) -> np.ndarray | None:
    """The (len(rows), width) values of comma-separated lines from one
    orjson parse, or None where they could differ from float()'s.

    orjson reads a JSON number to the correctly rounded double, as
    float() does (Clinger, PLDI 1990). The lines are parsed as they
    come from the file, "[[line\\n],[line\\n],...]", each line end JSON
    whitespace; with only _NUMBER_BYTES in them no JSON literal, string
    or bracket can appear, so rows of width numbers each mean that every
    cell held one number, and a blank line is a row of none. np.fromiter
    builds the block from the parsed rows. An integer -0 (orjson reads
    0), searched for only where a feature cell is 0, a label other than
    0 or 1, and whatever orjson refuses (leading zeros or points, empty
    cells, doubles beyond range) give None.
    """
    import orjson  # see write_csv

    text = ("[[" + "],[".join(rows) + "]]").encode()
    if (text.translate(None, _NUMBER_BYTES)
            != b"[[" + b"][" * (len(rows) - 1) + b"]]"):
        return None
    try:
        parsed = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    if set(map(len, parsed)) != {width}:
        return None
    values = np.fromiter(itertools.chain.from_iterable(parsed), np.float64,
                         len(rows) * width).reshape(len(rows), width)
    # a label -0 is 0 all the same, as labels become int64
    if (not _is_binary(values[:, -1]).all()
            or (not values[:, :-1].all()
                and _NEGATIVE_ZERO_INT.search(text))):
        return None
    return values


def write_csv(ds: Dataset, path) -> None:
    """Write the dataset in the load_csv contract; round-trips bit-exactly.

    Each float is written as repr writes it: the shortest text that
    parses back to the same double. Each block of rows is one orjson
    dump of its cells with the label as a last column, "[[a,b,0.0],
    [c,d,1.0]]", split at ".0],[" and joined by newlines into the
    block's CSV bytes, "a,b,0\nc,d,1\n": no row is decoded, formatted or
    encoded in Python, and no whole-file text is built. A dataset
    without feature columns, which load_csv cannot read back, is a
    DataError.

    orjson writes each double with Ryu (Adams, PLDI 2018): the shortest
    digits that parse back to the same double, and of those the nearest
    to it, which are the digits repr writes. The texts differ only where
    repr writes an exponent, below 1e-4 and from 1e16 up in magnitude
    (orjson: 0.00001 and 1e16, repr: 1e-05 and 1e+16); the rows that
    hold such a cell, _odd_cells, are formatted with repr. About 1 in
    2,000 Glorot weights is one.
    """
    if not ds.n_features:
        raise DataError(f"{path}: a dataset without features has no CSV form")
    # imported here, as _map_specs imports multiprocessing, so that
    # importing fasdnet does not load it
    import orjson

    block = max(1, _CSV_BLOCK_CELLS // (ds.n_features + 1))
    # C order, as orjson needs, whatever the layout of ds.x
    cells = np.empty((min(block, ds.n_rows), ds.n_features + 1))
    with open(path, "wb") as fh:
        fh.write((",".join(ds.feature_names) + ",label\n").encode())
        for start in range(0, ds.n_rows, block):
            x, y = ds.x[start:start + block], ds.y[start:start + block]
            b = cells[:len(x)]
            b[:, :-1] = x
            b[:, -1] = y  # 0.0 and 1.0: each row ends ".0]"
            text = orjson.dumps(b, option=orjson.OPT_SERIALIZE_NUMPY)
            rows = text[2:-4].split(b".0],[")
            for i in np.flatnonzero(_odd_cells(x).any(axis=1)).tolist():
                rows[i] = (",".join(map(float.__repr__, x[i].tolist()))
                           + f",{y[i]}").encode()
            rows.append(b"")
            fh.write(b"\n".join(rows))


# cells per block of CSV text, formatted by one orjson dump in write_csv
# or parsed by one _json_rows call (see load_csv): enough to spread a
# call's fixed cost (about 10 us) thin, few enough that the block's
# texts and values stay a few hundred KB (at 1 << 16, data-io's peak RSS
# rose by 10 MB when writing; loading 10,000 x 48 cells took the same
# time from 1 << 11 to 1 << 14 cells a block)
_CSV_BLOCK_CELLS = 1 << 12


def _odd_cells(a: np.ndarray) -> np.ndarray:
    """Where orjson's text of a float64 differs from repr's: below 1e-4
    or from 1e16 up in magnitude, except +-0.0, and nan and inf. Both
    writers, write_csv and training's model.json writer, use it."""
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
