"""The benchmark's workloads: inputs, timed commands and output checks.

Each workload builds its input files from the benchmark seed, then
repeats one fixed unit of work (a repetition) through fasdnet's public
entry points. Only the time spent inside fasdnet commands is timed;
checks run between commands. Every repetition re-runs identical
commands, so the artifacts' SHA-256 digests must agree across
repetitions, and a repetition whose digests differ counts as failed.

Times are normalized for machine speed (see normalize.py); the raw
wall seconds are kept alongside for the printed report.

fasdnet is reached through module attributes at call time (cli.main,
data.load_csv), so the traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import re
import shutil
import statistics
import sys
from pathlib import Path

from normalize import Stopwatch

# Battery shapes from the fasdnet data contract: (features, usual rows).
# They are fixed here, not read from fasdnet, so inputs stay the same
# when the program changes.
BATTERY_SHAPES = {
    "psychometric": (20, 129),
    "antisaccade": (15, 174),
    "prosaccade": (18, 186),
    "memory-guided": (26, 154),
    "dti": (48, 76),
}
FEATURE_LAYER_SPECS = {
    "psychometric-feature-layer": ("psychometric", 50),
    "antisaccade-128x2": ("antisaccade", 50),
    "prosaccade-128x2": ("prosaccade", 50),
    "memory-guided-feature-layer": ("memory-guided", 50),
    "dti-leaky-100ep": ("dti", 100),
}
TABLE2_SPECS = [f"table2-row{i}" for i in range(1, 10)]
TABLE2_TRAIN_FRACTION = 0.75
FEATURE_LAYER_TRAIN_FRACTION = 0.80

# Per-feature class separation on 20 features. At 0.7 table2-row1 tests
# near 0.8, so a change to learning shows in the accuracies; at 2.0 every
# table2 row scores 1.0. Files with other widths scale it by
# sqrt(20 / features) to keep the overall class distance the same.
SEPARATION_20 = 0.7


def separation(n_features: int) -> float:
    return SEPARATION_20 * math.sqrt(20 / n_features)


def class_counts(rows: int) -> tuple[int, int]:
    """(controls, FASD): unequal on purpose, so balancing has work."""
    fasd = rows * 2 // 5
    return rows - fasd, fasd


def stratified_test_size(counts, train_fraction: float) -> int:
    return sum(n - math.ceil(train_fraction * n) for n in counts)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def derived_seeds(seed: int, label: str, count: int) -> list[int]:
    rnd = random.Random(f"{label}:{seed}")
    return [rnd.randrange(2**31) for _ in range(count)]


def write_battery_file(fasdnet, path: Path, battery: str, seed: int) -> tuple[int, int]:
    """Battery-shaped synthetic CSV with unequal classes.

    synthesize_dataset always emits equal classes, so the minority class
    is cut down after generation. Returns (controls, FASD).
    """
    n_features, rows = BATTERY_SHAPES[battery]
    controls, fasd = class_counts(rows)
    data, rng = fasdnet.data, fasdnet.rng
    full = data.synthesize_dataset(controls, n_features, separation(n_features),
                                   rng.SeededRng(seed))
    keep = list(range(controls + fasd))  # class 0 rows come first
    data.write_csv(
        data.Dataset(battery, full.feature_names, full.x[keep], full.y[keep]), path
    )
    return controls, fasd


class Workload:
    """One unit of work repeated for the run's duration."""

    name = ""

    def __init__(self, fasdnet, seed: int, work_dir: Path):
        self.fasdnet = fasdnet
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.stopwatch = Stopwatch()
        # seconds inside fasdnet per repetition, normalized and raw
        self.rep_walls: list[float] = []
        self.raw_walls: list[float] = []
        self.items = 0  # training runs or rows completed
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        """Generate, write and load the inputs."""

    def repetition(self) -> None:
        raise NotImplementedError

    def enough(self) -> bool:
        return len(self.rep_walls) >= 2

    def finish(self) -> None:
        """Checks that run once after the timed repetitions."""

    def run_cli(self, argv) -> tuple[int, float, float]:
        """Run one in-process fasdnet command; returns (exit code, raw
        seconds, normalized seconds)."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.stopwatch.measure(self.fasdnet.cli.main, argv)

    def _check_digest(self, key: str, digest: str) -> bool:
        return self.digests.setdefault(key, digest) == digest

    def _report_failure(self, why: str) -> None:
        print(f"check failed ({self.name}): {why}", file=sys.stderr)

    def end_to_end(self) -> dict[str, float]:
        """Metrics every workload reports (the gated set)."""
        return {
            "wall_s": statistics.median(self.rep_walls),
            "items_per_s": self.items / sum(self.rep_walls),
        }

    def report_lines(self) -> list[str]:
        """Workload-specific metrics by name and unit, plus raw walls."""
        return [
            f"raw_wall_s {statistics.median(self.raw_walls):.6f} s (not normalized, "
            f"median of {len(self.raw_walls)} repetitions)",
        ]


class Table2Sweep(Workload):
    name = "table2-sweep"
    seeds_per_sweep = 2

    def setup(self):
        self.csv = self.work_dir / "psychometric.csv"
        (data_seed,) = derived_seeds(self.seed, "table2-data", 1)
        counts = write_battery_file(self.fasdnet, self.csv, "psychometric", data_seed)
        self.fasdnet.data.load_csv(self.csv, "psychometric")
        self.sweep_seeds = derived_seeds(self.seed, "table2-runs", self.seeds_per_sweep)
        self.test_size = stratified_test_size(counts, TABLE2_TRAIN_FRACTION)

    def repetition(self):
        out = self.work_dir / f"sweep{len(self.rep_walls)}"
        runs = len(TABLE2_SPECS) * len(self.sweep_seeds)
        self.attempted += runs
        code, raw, norm = self.run_cli([
            "sweep", "--data", str(self.csv), "--battery", "psychometric",
            "--specs", "table2", "--seeds", ",".join(map(str, self.sweep_seeds)),
            "--out-dir", str(out),
        ])
        self.rep_walls.append(norm)
        self.raw_walls.append(raw)
        good = 0
        if code != 0:
            self._report_failure(f"sweep exited {code}")
        elif not self._check_digest("runs.csv", sha256(out / "runs.csv")):
            self._report_failure("runs.csv digest differs from the first repetition")
        else:
            good = self._check_runs_csv(out / "runs.csv")
        self.failed += runs - good
        self.items += good
        shutil.rmtree(out, ignore_errors=True)

    def _check_runs_csv(self, path: Path) -> int:
        """Count rows whose accuracies lie in [0, 1] and whose confusion
        cells sum to the arithmetically derived test-set size."""
        expected = {(s, str(seed)) for s in TABLE2_SPECS for seed in self.sweep_seeds}
        good = 0
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["spec"], row["seed"])
                accs = (float(row["train_acc"]), float(row["test_acc"]))
                cells = sum(int(row[c]) for c in ("tp", "fp", "tn", "fn"))
                if key not in expected:
                    self._report_failure(f"unexpected runs.csv row {key}")
                elif not all(0.0 <= a <= 1.0 for a in accs):
                    self._report_failure(f"{key}: accuracy outside [0, 1]: {accs}")
                elif cells != self.test_size:
                    self._report_failure(f"{key}: {cells} confusion cells, expected {self.test_size}")
                else:
                    expected.discard(key)
                    good += 1
        return good

    def report_lines(self):
        return [
            f"runs_per_s {self.items / sum(self.rep_walls):.6f} 1/s "
            f"({len(self.rep_walls)} sweeps of {len(TABLE2_SPECS)} specs x "
            f"{len(self.sweep_seeds)} seeds)",
        ] + super().report_lines()


class FeatureLayerTrain(Workload):
    name = "feature-layer-train"
    seeds_per_round = 2
    min_commands = 100  # the tail needs at least 10 samples beyond it

    def __init__(self, *args):
        super().__init__(*args)
        self.latencies: list[float] = []

    def setup(self):
        self.files = {}
        self.test_sizes = {}
        data_seeds = derived_seeds(self.seed, "feature-layer-data", len(BATTERY_SHAPES))
        for battery, data_seed in zip(BATTERY_SHAPES, data_seeds):
            path = self.work_dir / f"{battery}.csv"
            counts = write_battery_file(self.fasdnet, path, battery, data_seed)
            self.fasdnet.data.load_csv(path, battery)
            self.files[battery] = path
            self.test_sizes[battery] = stratified_test_size(
                (min(counts),) * 2, FEATURE_LAYER_TRAIN_FRACTION
            )
        self.run_seeds = derived_seeds(self.seed, "feature-layer-runs", self.seeds_per_round)

    def repetition(self):
        raw_wall = wall = 0.0
        for spec, (battery, epochs) in FEATURE_LAYER_SPECS.items():
            for seed in self.run_seeds:
                out = self.work_dir / "train"
                self.attempted += 1
                code, raw, norm = self.run_cli([
                    "train", "--data", str(self.files[battery]), "--battery", battery,
                    "--spec", spec, "--seed", str(seed), "--out-dir", str(out),
                ])
                raw_wall += raw
                wall += norm
                self.latencies.append(norm)
                if code != 0:
                    self._report_failure(f"{spec} seed {seed}: train exited {code}")
                    self.failed += 1
                elif self._check_train(out, spec, seed, battery, epochs):
                    self.items += 1
                else:
                    self.failed += 1
                shutil.rmtree(out, ignore_errors=True)
        self.rep_walls.append(wall)
        self.raw_walls.append(raw_wall)

    def _check_train(self, out: Path, spec, seed, battery, epochs) -> bool:
        key = f"{spec}/{seed}"
        with open(out / "history.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        accs = [float(r[c]) for r in rows for c in ("train_acc", "val_acc")]
        if len(rows) != epochs or not all(0.0 <= a <= 1.0 for a in accs):
            self._report_failure(f"{key}: history.csv has {len(rows)} epochs or an accuracy outside [0, 1]")
            return False
        cells = [int(n) for n in re.findall(r"(\d+) \(", (out / "confusion.txt").read_text())]
        if len(cells) != 4 or sum(cells) != self.test_sizes[battery]:
            self._report_failure(f"{key}: confusion cells {cells}, expected sum {self.test_sizes[battery]}")
            return False
        for name in ("history.csv", "model.json"):
            if not self._check_digest(f"{key}/{name}", sha256(out / name)):
                self._report_failure(f"{key}: {name} digest differs from the first repetition")
                return False
        return True

    def enough(self):
        return len(self.rep_walls) >= 2 and len(self.latencies) >= self.min_commands

    def report_lines(self):
        n = len(self.latencies)
        ordered = sorted(self.latencies)
        return [
            f"train_s.p50 {statistics.median(ordered):.6f} s (n={n} train commands)",
            f"train_s.tail {ordered[n - 11]:.6f} s (p{100 * (n - 10) / n:.1f}, n={n}, "
            "10 samples beyond)",
            f"runs_per_s {self.items / sum(self.rep_walls):.6f} 1/s",
        ] + super().report_lines()


class DataIO(Workload):
    name = "data-io"
    rows_per_class = 5000
    n_features = 48

    def __init__(self, *args):
        super().__init__(*args)
        self.synth_s: list[float] = []
        self.load_s: list[float] = []
        self.loaded_digests: set[str] = set()

    def setup(self):
        (self.data_seed,) = derived_seeds(self.seed, "data-io", 1)
        self.csv = self.work_dir / "synth.csv"

    def repetition(self):
        self.attempted += 2
        code, raw_synth, synth_s = self.run_cli([
            "synth", "--samples-per-class", str(self.rows_per_class),
            "--features", str(self.n_features), "--separation", str(SEPARATION_20),
            "--seed", str(self.data_seed), "--out", str(self.csv),
        ])
        self.synth_s.append(synth_s)
        if code != 0:
            self._report_failure(f"synth exited {code}")
            self.failed += 2
            self.rep_walls.append(synth_s)
            self.raw_walls.append(raw_synth)
            return
        if not self._check_digest("synth.csv", sha256(self.csv)):
            self._report_failure("synth.csv digest differs from the first repetition")
            self.failed += 1
        ds, raw_load, load_s = self.stopwatch.measure(
            self.fasdnet.data.load_csv, self.csv, "synthetic"
        )
        self.loaded_digests.add(dataset_digest(ds))
        self.load_s.append(load_s)
        self.rep_walls.append(synth_s + load_s)
        self.raw_walls.append(raw_synth + raw_load)
        self.items += ds.n_rows
        self.csv.unlink()

    def finish(self):
        """load_csv must reproduce the generated x and y bit for bit."""
        data, rng = self.fasdnet.data, self.fasdnet.rng
        reference = data.synthesize_dataset(
            self.rows_per_class, self.n_features, SEPARATION_20, rng.SeededRng(self.data_seed)
        )
        if self.loaded_digests != {dataset_digest(reference)}:
            self._report_failure("load_csv did not reproduce the synthesized x and y")
            self.failed += len(self.load_s)
        else:
            self.digests["loaded x,y"] = dataset_digest(reference)

    def report_lines(self):
        rows = 2 * self.rows_per_class
        return [
            f"synth_rows_per_s {rows / statistics.median(self.synth_s):.3f} 1/s "
            f"({rows} rows x {self.n_features} features, median of {len(self.synth_s)})",
            f"load_rows_per_s {rows / statistics.median(self.load_s):.3f} 1/s "
            f"(median of {len(self.load_s)})",
        ] + super().report_lines()


def dataset_digest(ds) -> str:
    h = hashlib.sha256(ds.x.astype("<f8", copy=False).tobytes())
    h.update(ds.y.astype("<i8", copy=False).tobytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (Table2Sweep, FeatureLayerTrain, DataIO)}
