"""Experiment registry, runners, and evaluation reporting.

The registry reproduces two model families on the five batteries:

* Nine "first model" variants on psychometric data: an input dense
  layer and one or two hidden layers, all Leaky ReLU, two softmax
  outputs with sparse categorical cross-entropy, 1000 epochs, a 75/25
  split, no feature normalization and no class balancing. These are the
  architecture-sweep rows whose train/test accuracy contrast exposes
  overfitting as width grows.
* Five "second model" variants, one per battery: feature normalization
  on, class balancing on, an 80/20 split, binary cross-entropy with a
  single sigmoid output, and 50 training epochs (100 for DTI). The
  saccade batteries use two 128-neuron ReLU hidden layers; psychometric,
  memory-guided and DTI use four interleaved hidden layers of 64 and
  128 neurons alternating sigmoid and ReLU, with DTI swapping the ReLU
  slots for Leaky ReLU.

Published accuracies for the second family (psychometric 88.46%,
prosaccade 72.41%, memory-guided 88%, DTI 75%) ship as reference
constants for comparison output only; they are never test assertions,
because the runs behind them fixed neither seeds nor splits.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import os
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    ANTISACCADE,
    BATTERIES,
    DTI,
    MEMORY_GUIDED,
    PROSACCADE,
    PSYCHOMETRIC,
    SYNTHETIC,
    Dataset,
    SplitSpec,
    _is_binary,
    balance_downsample,
    stratified_split,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    FasdnetError,
    ReportError,
    ShapeError,
)
from .layers import (
    BINARY,
    RELU,
    SIGMOID,
    SOFTMAX,
    SPARSE_CATEGORICAL,
    NetworkConfig,
    _json_fields,
    leaky_relu,
)
from .rng import SeededRng, derive_seed
from .training import train_many


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts with FASD as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def _divisor(self) -> int:
        """total, percents' and accuracy's divisor; ContractError if 0."""
        if self.total == 0:
            raise ContractError("empty confusion matrix has no accuracy or percents")
        return self.total

    def percents(self) -> dict[str, float]:
        """Each cell as percent of all evaluated samples."""
        t = self._divisor()
        return {key: 100.0 * getattr(self, key) / t
                for key in ("tp", "fp", "tn", "fn")}

    def to_text(self) -> str:
        """Aligned table in the percent-of-total display convention."""
        pct = self.percents()

        def cell(count, key):
            return f"{count:4d} ({pct[key]:6.2f}%)"

        lines = [
            "                  predicted FASD    predicted control",
            f"actual FASD      {cell(self.tp, 'tp')}    {cell(self.fn, 'fn')}",
            f"actual control   {cell(self.fp, 'fp')}    {cell(self.tn, 'tn')}",
            f"samples: {self.total}   accuracy: {100.0 * accuracy(self):.2f}%",
        ]
        return "\n".join(lines) + "\n"


def confusion_matrix(predictions, labels) -> ConfusionMatrix:
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ShapeError(
            f"predictions {p.shape} and labels {y.shape} must be equal-length "
            "vectors"
        )
    for name, v in (("predictions", p), ("labels", y)):
        if not _is_binary(v).all():
            raise DataError(f"{name} must contain only 0 and 1")
    return ConfusionMatrix(
        tp=int(np.sum((p == 1) & (y == 1))),
        fp=int(np.sum((p == 1) & (y == 0))),
        tn=int(np.sum((p == 0) & (y == 0))),
        fn=int(np.sum((p == 0) & (y == 1))),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    return (cm.tp + cm.tn) / cm._divisor()


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one configuration on one battery."""

    name: str
    battery: str
    config: NetworkConfig
    train_fraction: float
    balance: bool = False

    def __post_init__(self):
        SplitSpec(self.train_fraction)  # its (0, 1) check


@dataclass
class RunResult:
    """A runs.csv row and its battery; test_acc is test_accuracy, from the cells."""

    spec_name: str
    battery: str
    seed: int
    train_accuracy: float
    confusion: ConfusionMatrix

    def __post_init__(self):
        if not 0.0 <= self.train_accuracy <= 1.0:
            raise DataError(f"train accuracy out of [0, 1]: {self.train_accuracy}")
        cells = list(astuple(self.confusion))
        if min(cells) < 0 or sum(cells) == 0:
            raise DataError(f"confusion cells {cells} must be >= 0, not all 0")

    @property
    def test_accuracy(self) -> float:
        return accuracy(self.confusion)


_TABLE2_ROWS = (
    (20, 15, None),
    (25, 15, None),
    (25, 20, None),
    (25, 30, None),
    (25, 20, 15),
    (50, 15, None),
    (100, 50, 25),
    (200, 15, None),
    (200, 50, 50),
)

_INTERLEAVED = ((64, SIGMOID), (128, RELU), (64, SIGMOID), (128, RELU))
# DTI's layout swaps the ReLU slots for Leaky ReLU
_INTERLEAVED_LEAKY = tuple(
    (w, leaky_relu() if a == RELU else a) for w, a in _INTERLEAVED
)


def _first_model_spec(row_number: int, widths) -> ExperimentSpec:
    hidden = tuple((w, leaky_relu()) for w in widths if w is not None)
    config = NetworkConfig(
        input_dim=20,
        layers=hidden + ((2, SOFTMAX),),
        loss=SPARSE_CATEGORICAL,
        use_feature_layer=False,
        epochs=1000,
        learning_rate=0.001,
        seed=0,
    )
    return ExperimentSpec(f"table2-row{row_number}", PSYCHOMETRIC, config, 0.75)


def _second_model_spec(name, battery, input_dim, hidden, epochs) -> ExperimentSpec:
    config = NetworkConfig(
        input_dim=input_dim,
        layers=tuple(hidden) + ((1, SIGMOID),),
        loss=BINARY,
        use_feature_layer=True,
        epochs=epochs,
        learning_rate=0.001,
        seed=0,
    )
    return ExperimentSpec(name, battery, config, 0.80, balance=True)


def builtin_registry() -> list[ExperimentSpec]:
    """All fourteen built-in experiment specs, first model then second."""
    specs = [
        _first_model_spec(i + 1, widths)
        for i, widths in enumerate(_TABLE2_ROWS)
    ]
    specs += [
        _second_model_spec(
            "psychometric-feature-layer", PSYCHOMETRIC, 20, _INTERLEAVED, 50
        ),
        _second_model_spec(
            "antisaccade-128x2", ANTISACCADE, 15, ((128, RELU), (128, RELU)), 50
        ),
        _second_model_spec(
            "prosaccade-128x2", PROSACCADE, 18, ((128, RELU), (128, RELU)), 50
        ),
        _second_model_spec(
            "memory-guided-feature-layer", MEMORY_GUIDED, 26, _INTERLEAVED, 50
        ),
        _second_model_spec(
            "dti-leaky-100ep", DTI, 48, _INTERLEAVED_LEAKY, 100
        ),
    ]
    return specs


REGISTRY = {spec.name: spec for spec in builtin_registry()}

SPEC_SETS = {
    "table2": [n for n, s in REGISTRY.items() if s.config.loss == SPARSE_CATEGORICAL],
    "feature-layer": [n for n, s in REGISTRY.items() if s.config.loss == BINARY],
    "all": list(REGISTRY),
}


def comma_list(text: str) -> list[str]:
    """The items of a comma list, each stripped; empty items are skipped."""
    return [item for item in map(str.strip, text.split(",")) if item]


def resolve_specs(token: str) -> list[ExperimentSpec]:
    """Turn a set name ("table2", "feature-layer", "all") or a comma
    list of builtin names into specs."""
    names = SPEC_SETS[token] if token in SPEC_SETS else comma_list(token)
    if not names:
        raise ConfigError(f"no experiment specs in {token!r}")
    specs = []
    for name in names:
        if name not in REGISTRY:
            raise ConfigError(
                f"unknown experiment {name!r}; builtin sets: "
                f"{sorted(SPEC_SETS)}, builtin names: {sorted(REGISTRY)}"
            )
        specs.append(REGISTRY[name])
    return specs


def _annotate(name: str, exc: FasdnetError) -> FasdnetError:
    """exc, its message prefixed with a spec's or an input file's name."""
    exc.args = (f"{name}: {exc}",)
    return exc


def run_experiment_with_model(spec: ExperimentSpec, ds: Dataset, seed: int):
    """Balance, split, train, evaluate; deterministic per seed.
    Returns (RunResult, TrainedModel, History).

    Synthetic datasets stand in for any battery; a real battery must
    match the spec's battery. The run seed feeds three independent derived
    streams (balancing, splitting, weight init), so one integer pins
    the whole run. The network's input width is the dataset's, which
    lets battery-shaped specs run on synthetic data of any width (a
    caller drops columns first, with data.drop_features); train --spec
    and sweep --specs first require a config file's input_dim to match
    it. It leaves this process on one BLAS thread (see _pin_blas).
    """
    _pin_blas()
    (outcome,) = _run_seeds(spec, ds, [seed])
    if isinstance(outcome, FasdnetError):
        raise outcome
    return outcome


def _run_seeds(spec: ExperimentSpec, ds: Dataset, seeds) -> list:
    """run_experiment_with_model for every seed, trained as one stacked
    network; returns (RunResult, TrainedModel, History) or the
    FasdnetError per seed, in order.

    Everything up to and including train_many is one step whose
    FasdnetError fails every seed with one message. Its checks of the
    battery, classes to balance and split, input width, and
    train_many's shapes, labels and rows read the spec, the columns and
    the class counts, which balancing sets to the minority count for
    any seed, so the seeds' sizes agree and they stack. Only the
    feature layer's checks read the seed's rows: that each feature's
    training mean and standard deviation, and every value they
    standardize, are finite. A column that fails either for one seed
    fails the spec as a whole. A divergence fails its seed alone. Each
    surviving seed's confusion matrix counts the test labels train_many
    took from its last epoch's pass, so its test accuracy is its
    history's last val_acc.
    """
    try:
        if ds.battery != spec.battery and ds.battery != SYNTHETIC:
            raise DataError(
                f"dataset battery {ds.battery!r} does not match "
                f"spec battery {spec.battery!r}"
            )
        configs, splits = [], []
        for seed in seeds:
            working = ds
            if spec.balance:
                working = balance_downsample(
                    working, SeededRng(derive_seed(seed, 1))
                )
            split = SplitSpec(spec.train_fraction, seed=derive_seed(seed, 2))
            splits.append(stratified_split(working, split))
            configs.append(replace(
                spec.config, input_dim=working.n_features, seed=derive_seed(seed, 3)
            ))
        # every seed's training x and y, then its test x and y, stacked
        x_train, y_train, x_test, y_test = (
            np.stack([getattr(part, k) for part in parts])
            for parts in zip(*splits) for k in ("x", "y"))
        trained = train_many(configs, x_train, y_train, x_test, y_test,
                             ds.feature_names)
    except FasdnetError as exc:
        return [_annotate(spec.name, exc)] * len(seeds)
    outcomes = []
    for seed, y, outcome in zip(seeds, y_test, trained):
        if isinstance(outcome, FasdnetError):
            outcomes.append(_annotate(spec.name, outcome))
            continue
        model, history, labels = outcome
        cm = confusion_matrix(labels, y)
        result = RunResult(
            spec_name=spec.name,
            battery=spec.battery,
            seed=seed,
            train_accuracy=history.train_acc[-1],
            confusion=cm,
        )
        outcomes.append((result, model, history))
    return outcomes


@dataclass
class SpecStats:
    name: str
    battery: str
    n_runs: int
    median_test_accuracy: float
    mean_test_accuracy: float
    median_train_accuracy: float
    median_gap: float  # train - test accuracy, the overfitting signal


@dataclass
class SweepResult:
    results: list[RunResult]
    failures: list[tuple[str, int, str]]
    spec_order: list[str]
    seeds: list[int]
    seconds: list[float] = field(default_factory=list)  # per spec, in spec_order
    workers: int = 1

    def timings(self) -> dict[str, dict]:
        """Seeds, failed runs and seconds per spec, in spec order. They
        vary from run to run, so they go to stderr and manifest.json,
        never into the byte-identical files."""
        failed = Counter(name for name, _, _ in self.failures)
        return {
            name: {"seeds": len(self.seeds), "failures": failed[name],
                   "seconds": seconds}
            for name, seconds in zip(self.spec_order, self.seconds)
        }

    def per_spec_stats(self) -> list[SpecStats]:
        stats = []
        by_spec: dict[str, list[RunResult]] = {}
        for r in self.results:
            by_spec.setdefault(r.spec_name, []).append(r)
        for name in self.spec_order:
            runs = by_spec.get(name, [])
            if not runs:
                continue
            test = [r.test_accuracy for r in runs]
            tr = [r.train_accuracy for r in runs]
            gap = [r.train_accuracy - r.test_accuracy for r in runs]
            stats.append(
                SpecStats(
                    name=name,
                    battery=runs[-1].battery,
                    n_runs=len(runs),
                    median_test_accuracy=float(_median(test)),
                    mean_test_accuracy=float(np.mean(test)),
                    median_train_accuracy=float(_median(tr)),
                    median_gap=float(_median(gap)),
                )
            )
        return stats

    def runs_csv_text(self) -> str:
        lines = ["spec,seed,train_acc,test_acc,tp,fp,tn,fn"]
        for r in self.results:
            row = io.StringIO()  # a spec name is quoted where csv quotes it
            csv.writer(row).writerow((r.spec_name, r.seed, repr(r.train_accuracy),
                                      repr(r.test_accuracy), *astuple(r.confusion)))
            lines.append(row.getvalue()[:-2])  # less the writer's "\r\n"
        return "\n".join(lines) + "\n"

    def summary_json_text(self) -> str:
        doc = {
            "seeds": self.seeds,
            "specs": {
                s.name: {
                    "battery": s.battery,
                    "runs": s.n_runs,
                    "median_test_accuracy": s.median_test_accuracy,
                    "mean_test_accuracy": s.mean_test_accuracy,
                    "median_train_accuracy": s.median_train_accuracy,
                    "median_generalization_gap": s.median_gap,
                }
                for s in self.per_spec_stats()
            },
            "failures": [
                {"spec": name, "seed": seed, "error": msg}
                for name, seed, msg in self.failures
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_files(cls, runs_path: Path, summary_path: Path) -> "SweepResult":
        """The sweep that wrote runs.csv and summary.json, with no runs if
        every run failed, each run with its spec's battery, in a sweep's
        order: by spec, then by seed in seeds' order (others last, in file
        order), less runs that also failed. ReportError, naming the file
        and line, for a file that is unreadable or not that text (test_acc
        is not parsed), or a seed not run or failed once."""
        doc = _json_object(summary_path, ReportError)
        with _json_fields(summary_path, ReportError):
            seeds = [int(seed) for seed in doc["seeds"]]
            failures = [(str(f["spec"]), int(f["seed"]), str(f["error"]))
                        for f in doc["failures"]]
        specs, data, runs = doc.get("specs", {}), runs_path.read_bytes(), {}
        try:
            text = data.decode("utf-8")
            reader = csv.DictReader(io.StringIO(text, newline=""))
            for row in reader:
                cells = [int(row[k]) for k in ("tp", "fp", "tn", "fn")]
                run = RunResult(row["spec"], specs[row["spec"]]["battery"],
                                int(row["seed"]), float(row["train_acc"]),
                                ConfusionMatrix(*cells))
                if run.battery not in BATTERIES:
                    raise ReportError(f"{summary_path}: spec {run.spec_name!r} "
                                      f"has unknown battery {run.battery!r}")
                if runs.setdefault((run.spec_name, run.seed), run) is not run:
                    raise DataError(f"{run.spec_name} seed {run.seed} is listed twice")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ReportError(f"{runs_path}:{line}: not UTF-8: {exc}") from exc
        except (KeyError, TypeError, ValueError, csv.Error, DataError) as exc:
            # the csv reader's count: DictReader's lags a line behind a csv.Error
            raise ReportError(
                f"{runs_path}:{reader.reader.line_num}: malformed run row or "
                f"spec missing from summary.json: {exc!r}"
            ) from exc
        # one spec order for the runs and the failures, as a sweep's: the
        # runs' order, each spec that only fails after the spec its
        # failures follow (first if none)
        order, previous = list(dict.fromkeys(name for name, _ in runs)), None
        for name, _, _ in failures:
            if name not in order:
                order.insert(0 if previous is None else order.index(previous) + 1,
                             name)
            previous = name
        rank = {seed: k for k, seed in enumerate(dict.fromkeys(seeds))}

        def place(key):  # (spec, seed), a seed not in seeds after them
            return order.index(key[0]), rank.get(key[1], len(rank))
        failed = {failure[:2] for failure in failures}  # written as failures only
        kept = sorted((key for key in runs if key not in failed), key=place)
        sweep = cls([runs[k] for k in kept], sorted(failures, key=place), order, seeds)
        summary = summary_path.read_bytes().decode()
        for path, got, want in ((runs_path, text, sweep.runs_csv_text()),
                                (summary_path, summary, sweep.summary_json_text())):
            if got != want:  # name the first line that differs
                line = got.count("\n", 0, len(os.path.commonprefix((got, want))))
                got, want = got.split("\n")[line], want.split("\n")[line]
                raise ReportError(f"{path}:{line + 1}: reads {got!r} where a "
                                  f"sweep of these runs writes {want!r}")
        listed = Counter([*runs, *(failure[:2] for failure in failures)])
        listed.subtract((name, seed) for name in order for seed in seeds)
        for (name, seed), extra in listed.items():
            if extra:  # line 2 of a sweep's summary.json is "seeds"
                raise ReportError(f"{summary_path}:2: spec {name!r} has "
                                  f"{seeds.count(seed) + extra} runs or failures "
                                  f"of seed {seed}, where a sweep of seeds "
                                  f"{seeds} runs or fails each once")
        return sweep

    def summary_text(self) -> str:
        """Generalization-gap table sorted by median test accuracy."""
        stats = sorted(
            self.per_spec_stats(),
            key=lambda s: s.median_test_accuracy,
            reverse=True,
        )
        name_w = max([len("spec")] + [len(s.name) for s in stats])
        lines = [
            f"{'spec':<{name_w}}  runs  median test  mean test  "
            "median train  gap"
        ]
        for s in stats:
            lines.append(
                f"{s.name:<{name_w}}  {s.n_runs:4d}  "
                f"{100 * s.median_test_accuracy:10.2f}%  "
                f"{100 * s.mean_test_accuracy:8.2f}%  "
                f"{100 * s.median_train_accuracy:11.2f}%  "
                f"{100 * s.median_gap:+.2f}pp"
            )
        if self.failures:
            lines.append("")
            lines.append("failed runs:")
            for name, seed, msg in self.failures:
                lines.append(f"  {name} seed={seed}: {msg}")
        return "\n".join(lines) + "\n"


def _json_object(path: Path, error: type, read=dict):
    """read of the JSON object in an input file, {} for a blank file;
    the one reader of a config, summary.json or baselines file. error
    names the file for text that is not UTF-8 or not JSON, or another
    kind of value, and read's own FasdnetError gains the file's name."""
    with _json_fields(path, error):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text) if text.strip() else {}
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object, got {type(doc).__name__}")
    try:
        return read(doc)
    except FasdnetError as exc:
        raise _annotate(str(path), exc)


@functools.cache
def _openblas(stem: str, restype, *argtypes):
    """The loaded OpenBLAS's `openblas_<stem>` function through ctypes,
    typed, or None if none is found (another BLAS, or no /proc/self/maps);
    looked up once per process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_",
                           f"openblas_{stem}"):
                if hasattr(handle, symbol):
                    function = getattr(handle, symbol)
                    function.restype, function.argtypes = restype, argtypes
                    return function
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None if none is
    found."""
    get_threads = _openblas("get_num_threads", ctypes.c_int)
    return None if get_threads is None else get_threads()


def _blas_core() -> str | None:
    """The OpenBLAS kernel picked for this CPU (SkylakeX, ...), or None."""
    get_core = _openblas("get_corename", ctypes.c_char_p)
    return None if get_core is None else get_core().decode()


def _pin_blas() -> None:
    """One BLAS thread for this process and every worker it forks: at
    fasdnet's widths and row counts a second thread never shortened a
    run, and pooled workers would contend for the cores they fill."""
    set_threads = _openblas("set_num_threads", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(1)


def _run_spec(task):
    """One sweep spec, run in a worker: (RunResult or FasdnetError per
    seed, in seed order; the worker's seconds).
    The trained models and histories stay behind, as the sweep writes
    neither: each run is what SweepResult.from_files reads back."""
    spec, ds, seeds = task
    start = time.perf_counter()
    outcomes = [outcome if isinstance(outcome, FasdnetError) else outcome[0]
                for outcome in _run_seeds(spec, ds, seeds)]
    return outcomes, time.perf_counter() - start


def _map_specs(tasks, workers: int):
    """(_run_spec over tasks in order, worker count used).

    The tasks run on a pool of forked workers, each taking the next
    task in the given order as soon as it is free; a worker that dies
    fails the sweep with BrokenProcessPool instead of losing its task.
    They run in this process instead when there is one worker, no fork,
    or another thread, which a fork could catch holding a lock."""
    # only sweeps pay for these imports
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    if (workers > 1 and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, context) as pool:
            return list(pool.map(_run_spec, tasks)), workers
    return list(map(_run_spec, tasks)), 1


def _cost(spec: ExperimentSpec, ds: Dataset) -> int:
    """epochs x rows x the weight count: proportional to a spec's
    training time on ds."""
    rows = 2 * min(ds.class_counts()) if spec.balance else ds.n_rows
    widths = [ds.n_features] + [width for width, _ in spec.config.layers]
    weights = sum(a * b for a, b in zip(widths, widths[1:]))
    return spec.config.epochs * rows * weights


def run_sweep(specs, ds: Dataset, seeds) -> SweepResult:
    """Run every spec x seed combination, in spec-major order; a failed
    run is recorded without aborting the sweep.

    The seeds of one spec train as one stacked network (see
    training.train_many); every result is bit-identical to running
    that seed alone, and memory grows linearly with the seed count.

    The specs run through _map_specs, the most expensive first, and the
    results are the same bytes for any worker count (see README,
    Determinism). This process, and so each worker it forks, trains on
    one BLAS thread (see _pin_blas)."""
    specs = list(specs)
    seeds = [int(s) for s in seeds]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError(f"sweep needs one or more distinct seeds, got {seeds}")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate spec names in sweep: {names}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    order = sorted(range(len(specs)), key=lambda i: -_cost(specs[i], ds))
    _pin_blas()
    outputs, workers = _map_specs(
        [(specs[i], ds, seeds) for i in order], min(len(specs), cpus)
    )
    by_spec = dict(zip(order, outputs))
    results, failures, seconds = [], [], []
    for i, spec in enumerate(specs):
        outcomes, spec_seconds = by_spec[i]
        seconds.append(spec_seconds)
        for seed, outcome in zip(seeds, outcomes):
            if isinstance(outcome, FasdnetError):
                failures.append((spec.name, seed, str(outcome)))
            else:
                results.append(outcome)
    return SweepResult(results, failures, names, seeds, seconds, workers)


# Published test accuracies for the feature-layer models, in percent.
# Reporting constants only; no run is expected to reproduce them.
REFERENCE_ACCURACIES = {
    PSYCHOMETRIC: 88.46,
    PROSACCADE: 72.41,
    MEMORY_GUIDED: 88.0,
    DTI: 75.0,
}

# Best published psychometric accuracy for the model family that skips
# feature standardization; context for the constants above.
REFERENCE_ACCURACY_RAW_PSYCHOMETRIC = 75.55


@dataclass(frozen=True)
class BaselineTable:
    """Optional user-supplied baseline values (e.g. a comparison
    learner) keyed by battery, in percent, shown beside
    REFERENCE_ACCURACIES; DataError names an unknown battery or a value
    that is not a finite number."""

    user: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for battery, value in self.user.items():
            if battery not in BATTERIES:
                raise DataError(f"unknown battery {battery!r}")
            # nan, inf and ints beyond a double's range are not percentages
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise DataError(
                    f"the value for {battery!r} is not a number: {value!r}")


@dataclass
class ComparisonRow:
    battery: str
    ours: float  # percent
    reference: float | None
    user: float | None
    diff: float | None  # ours - reference, percentage points


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    mean_diff: float | None
    std_diff: float | None  # population convention

    def to_csv_text(self) -> str:
        lines = ["battery,ours,baseline"]
        for row in self.rows:
            base = "" if row.reference is None else repr(row.reference)
            lines.append(f"{row.battery},{row.ours!r},{base}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            "battery           ours      reference  user       diff",
        ]
        for row in self.rows:
            ref = "-      " if row.reference is None else f"{row.reference:6.2f}%"
            usr = "-      " if row.user is None else f"{row.user:6.2f}%"
            diff = "-" if row.diff is None else f"{row.diff:+.2f}pp"
            lines.append(
                f"{row.battery:<16}  {row.ours:6.2f}%  {ref}    {usr}   {diff}"
            )
        if self.mean_diff is not None:
            lines.append(
                f"mean difference vs reference: {self.mean_diff:+.2f}pp "
                f"(population std {self.std_diff:.2f})"
            )
        lines.append(
            "provenance: reference = published accuracy constants; "
            "user = values from a supplied baselines file"
        )
        lines.append(
            "reference constants assume feature standardization; published "
            "psychometric accuracy without it is "
            f"{REFERENCE_ACCURACY_RAW_PSYCHOMETRIC:.2f}%"
        )
        return "\n".join(lines) + "\n"


def _median(xs) -> float:
    """statistics.median's result, without its imports or np.median's numpy.ma."""
    xs, half = sorted(xs), len(xs) // 2
    return xs[half] if len(xs) % 2 else (xs[half - 1] + xs[half]) / 2


def battery_medians(results) -> dict[str, float]:
    """Median test accuracy per battery, in percent, over every run of
    that battery (not over per-spec medians), in first-seen order."""
    results = list(results)
    if not results:
        raise ReportError("no results to report on")
    by_battery: dict[str, list[float]] = {}
    for r in results:
        by_battery.setdefault(r.battery, []).append(r.test_accuracy)
    return {
        battery: 100.0 * float(_median(accs))
        for battery, accs in by_battery.items()
    }


def comparison_report(results, baselines: BaselineTable) -> ComparisonReport:
    """Median our-accuracy per battery against the reference and user
    baselines.

    Differences (ours - reference) are reported in percentage points
    with the population standard deviation. A battery without a
    baseline value gets None there; when no battery has a reference,
    the mean and standard deviation are None too.
    """
    medians = battery_medians(results)
    rows = []
    diffs = []
    for battery, ours in medians.items():
        ref = REFERENCE_ACCURACIES.get(battery)
        usr = baselines.user.get(battery)
        diff = None if ref is None else ours - ref
        if diff is not None:
            diffs.append(diff)
        rows.append(ComparisonRow(battery, ours, ref, usr, diff))
    mean_diff = float(np.mean(diffs)) if diffs else None
    std_diff = float(np.std(diffs)) if diffs else None
    return ComparisonReport(rows, mean_diff, std_diff)
