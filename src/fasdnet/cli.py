"""Command line front end: synth, train, sweep, and report.

Every command is deterministic given its flags, input file bytes, and
seed. Commands that create an output directory also write a single
manifest.json recording the command line, input hashes, seed, tool
version, timestamp, and the Python, numpy, BLAS, its kernel and thread
count and the worker count of the processes that trained (trained
weights depend on the BLAS), so a run can be re-executed exactly. A sweep's manifest
also records each spec's seconds, which sweep prints to stderr as
well.

Exit codes: 0 success, 2 usage, 3 data error (including missing or
malformed input files) and every other toolkit error without a code of
its own (ReportError included), 4 configuration error, 5 training
divergence, 6 filesystem error, 7 a sweep in which every run failed.
The default output directory can be set with the FASDNET_OUT_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import BATTERIES, load_csv, synthesize_dataset, write_csv
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FasdnetError,
    ReportError,
)
from .experiment import (
    REGISTRY,
    BaselineTable,
    ConfusionMatrix,
    ExperimentSpec,
    RunResult,
    _blas_core,
    _blas_threads,
    accuracy,
    comparison_report,
    resolve_specs,
    run_experiment_with_model,
    run_sweep,
)
from .layers import NetworkConfig
from .rng import SeededRng

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_DIVERGENCE = 5
EXIT_IO = 6
EXIT_ALL_FAILED = 7


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _out_dir(args) -> Path:
    """The output directory; a command makes it before its first write."""
    out = args.out_dir or os.environ.get("FASDNET_OUT_DIR")
    if not out:
        raise ConfigError(
            "no output directory: pass --out-dir or set FASDNET_OUT_DIR"
        )
    path = Path(out)
    if path.exists() and not path.is_dir():
        raise NotADirectoryError(f"output path {path} is not a directory")
    return path


@functools.cache
def _environment() -> dict:
    """The Python, numpy and BLAS of this process, and the SIMD
    extensions numpy dispatches to, found once."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # a numpy without show_config's mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": config.get("SIMD Extensions", {}).get("found"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": _blas_core(),
        "blas_threads": _blas_threads(),
    }


def _write_manifest(out_dir: Path, argv, seed, config_hash, data_hash,
                    trainers: dict | None = None, **extra) -> None:
    """manifest.json; trainers overrides the environment's worker count
    and BLAS threads when processes other than this one trained."""
    doc = {
        "command_line": ["fasdnet"] + list(argv),
        "config_hash": config_hash,
        "data_file_hash": data_hash,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "environment": {**_environment(), "workers": 1, **(trainers or {})},
        **extra,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )


def _load_dataset(args):
    path = Path(args.data)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    return load_csv(path, args.battery), _sha256_file(path)


def _config_spec(path: Path, args) -> ExperimentSpec:
    """A network-config JSON file wrapped in an experiment spec named
    after the file, using the command's battery, split and balance
    flags; train --spec and sweep --specs share it."""
    return ExperimentSpec(
        name=path.stem,
        battery=args.battery,
        config=NetworkConfig.from_json(path.read_text(encoding="utf-8")),
        train_fraction=args.train_fraction,
        balance=args.balance,
    )


def _train_spec(args) -> ExperimentSpec:
    """--spec as a builtin name or a config file, with --ablate applied."""
    path = Path(args.spec)
    if args.spec in REGISTRY:
        spec = REGISTRY[args.spec]
    elif path.is_file():
        spec = _config_spec(path, args)
    else:
        raise ConfigError(
            f"{args.spec!r} is neither a builtin experiment name nor a config "
            f"file; builtin names: {sorted(REGISTRY)}"
        )
    if args.ablate:
        spec = replace(spec, ablate=tuple(args.ablate.split(",")))
    return spec


def _sweep_specs(args) -> list[ExperimentSpec]:
    """--specs as a directory of config files, or builtin names and sets."""
    path = Path(args.specs)
    if not path.is_dir():
        return resolve_specs(args.specs)
    specs = [_config_spec(file, args) for file in sorted(path.glob("*.json"))]
    if not specs:
        raise ConfigError(f"no *.json config files in directory {path}")
    return specs


def cmd_synth(args, argv) -> int:
    rng = SeededRng(args.seed)
    ds = synthesize_dataset(args.samples_per_class, args.features,
                            args.separation, rng)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out)
    controls, fasd = ds.class_counts()
    print(
        f"wrote {out}: battery={ds.battery} rows={ds.n_rows} "
        f"features={ds.n_features} control={controls} fasd={fasd} "
        f"separation={args.separation} seed={args.seed}"
    )
    return EXIT_OK


def cmd_train(args, argv) -> int:
    ds, data_hash = _load_dataset(args)
    spec = _train_spec(args)
    out_dir = _out_dir(args)
    result, model = run_experiment_with_model(spec, ds, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "confusion.txt").write_text(
        result.confusion.to_text(), encoding="utf-8"
    )
    result.history.write_csv(out_dir / "history.csv")
    (out_dir / "model.json").write_text(model.to_json(), encoding="utf-8")
    _write_manifest(
        out_dir, argv, args.seed, _sha256_text(spec.config.to_json()), data_hash
    )
    print(
        f"{spec.name}: train accuracy {100 * result.train_accuracy:.2f}%, "
        f"test accuracy {100 * result.test_accuracy:.2f}% "
        f"({result.confusion.total} test samples); artifacts in {out_dir}"
    )
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    ds, data_hash = _load_dataset(args)
    specs = _sweep_specs(args)
    out_dir = _out_dir(args)
    sweep = run_sweep(specs, ds, args.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "runs.csv").write_text(sweep.runs_csv_text(), encoding="utf-8")
    (out_dir / "summary.txt").write_text(sweep.summary_text(), encoding="utf-8")
    (out_dir / "summary.json").write_text(
        sweep.summary_json_text(), encoding="utf-8"
    )
    config_digest = _sha256_text("".join(s.config.to_json() for s in specs))
    timings = sweep.timings()
    trainers = {"workers": sweep.workers, "blas_threads": sweep.blas_threads}
    _write_manifest(out_dir, argv, args.seeds[0], config_digest, data_hash,
                    trainers, timings=timings)
    for name, t in timings.items():
        print(f"{name}: {t['seeds']} seeds, {t['failures']} failed, "
              f"{t['seconds']:.2f} s", file=sys.stderr)
    sys.stdout.write(sweep.summary_text())
    print(f"{len(sweep.results)} runs ({len(sweep.failures)} failed); "
          f"artifacts in {out_dir}")
    if not sweep.results:
        print(f"error: all {len(sweep.failures)} runs failed", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


def cmd_report(args, argv) -> int:
    results_dir = Path(args.results)
    runs_path = results_dir / "runs.csv"
    summary_path = results_dir / "summary.json"
    if not runs_path.is_file() or not summary_path.is_file():
        raise ReportError(
            f"no sweep results in {results_dir} (need runs.csv and "
            "summary.json)"
        )
    user = {}
    if args.baselines:
        path = Path(args.baselines)
        user = _json_object(path, DataError)
        for battery, value in user.items():
            if battery not in BATTERIES:
                raise DataError(
                    f"baselines file {path} names unknown battery {battery!r}"
                )
            # nan, inf and ints beyond a double's range are not percentages
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise DataError(
                    f"baselines file {path}: the value for {battery!r} is "
                    f"not a number: {value!r}"
                )
    baselines = BaselineTable(user=user)

    report = comparison_report(_runs_from_csv(runs_path, summary_path),
                               baselines)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "comparison.csv").write_text(
        report.to_csv_text(), encoding="utf-8"
    )
    (out_dir / "comparison.txt").write_text(report.to_text(), encoding="utf-8")
    _write_manifest(out_dir, argv, 0, _sha256_text(json.dumps(user)),
                    _sha256_file(runs_path))
    sys.stdout.write(report.to_text())
    return EXIT_OK


def _json_object(path: Path, error: type) -> dict:
    """The JSON object in a report input file, {} for a blank file;
    error, naming the file, when it holds invalid JSON or another kind
    of value."""
    try:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text) if text.strip() else {}
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _runs_from_csv(runs_path: Path, summary_path: Path) -> list[RunResult]:
    """Rebuild a sweep's runs from runs.csv, joining each spec to its
    battery in summary.json."""
    specs = _json_object(summary_path, ReportError).get("specs", {})
    data = runs_path.read_bytes()
    runs, seen = [], set()
    try:
        reader = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
        for row in reader:
            cells = [int(row[k]) for k in ("tp", "fp", "tn", "fn")]
            run = RunResult(row["spec"], specs[row["spec"]]["battery"],
                            int(row["seed"]), float(row["train_acc"]),
                            float(row["test_acc"]), ConfusionMatrix(*cells), None)
            if run.battery not in BATTERIES:
                raise ReportError(f"{summary_path}: spec {run.spec_name!r} "
                                  f"has unknown battery {run.battery!r}")
            if min(cells) < 0 or sum(cells) == 0:
                raise DataError(f"confusion cells {cells} must be >= 0, not all 0")
            # runs.csv holds the repr of this same division
            if run.test_accuracy != accuracy(run.confusion):
                raise DataError(f"test_acc is not (tp + tn) / total of {cells}")
            if (run.spec_name, run.seed) in seen:
                raise DataError(f"{run.spec_name} seed {run.seed} is listed twice")
            seen.add((run.spec_name, run.seed))
            runs.append(run)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ReportError(f"{runs_path}:{line}: not UTF-8: {exc}") from exc
    except (KeyError, TypeError, ValueError, csv.Error, DataError) as exc:
        # the csv reader's count: DictReader's lags a line behind a csv.Error
        raise ReportError(
            f"{runs_path}:{reader.reader.line_num}: malformed run row or "
            f"spec missing from summary.json: {exc!r}"
        ) from exc
    if not runs:
        raise ReportError(f"{runs_path} lists no runs")
    return runs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fasdnet",
        description="Dense-network FASD-vs-control classification toolkit",
        epilog="exit codes: 0 ok, 2 usage, 3 data or any other toolkit "
               "error (report included), 4 config, 5 divergence, "
               "6 filesystem, 7 every sweep run failed",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic battery CSV")
    p.add_argument("--samples-per-class", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--separation", type=float, required=True,
                   help="class mean separation in per-feature std units")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one configuration and evaluate")
    p.add_argument("--data", required=True, help="battery CSV path")
    p.add_argument("--battery", required=True, choices=BATTERIES)
    p.add_argument("--spec", required=True,
                   help="builtin experiment name or network-config JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.8,
                   help="used only with a config file, not builtins")
    p.add_argument("--balance", action="store_true",
                   help="used only with a config file, not builtins")
    p.add_argument("--ablate", default="",
                   help="comma list of feature names to drop before training")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run a set of specs over several seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--battery", required=True, choices=BATTERIES)
    p.add_argument("--specs", required=True,
                   help="set name (table2, feature-layer, all), comma list of "
                        "builtin names, or a directory of config JSON files")
    p.add_argument("--seeds", required=True, type=_seed_list,
                   help="comma list of integers")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--balance", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="compare sweep results with baselines")
    p.add_argument("--results", required=True,
                   help="directory containing a sweep's runs.csv/summary.json")
    p.add_argument("--baselines", default=None,
                   help="JSON file of user baseline accuracies by battery")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def _seed_list(text: str) -> list[int]:
    """--seeds: a comma list of integers, empty items skipped; a bad
    item is a usage error that names it."""
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _is_negative_value(token: str) -> bool:
    """Whether token is a negative value float() or _seed_list reads.
    argparse takes only -1 and -1.5 shaped tokens for negative numbers,
    so it reads -1e3, -inf, -Infinity, -nan or -1,2 as an unknown
    option."""
    if not token.startswith("-"):
        return False
    for read in (float, _seed_list):
        try:
            read(token)
        except (ValueError, argparse.ArgumentTypeError):
            continue
        return True
    return False


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join "--opt -1e3" into "--opt=-1e3", which argparse reads."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _is_negative_value(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args, argv)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FasdnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
