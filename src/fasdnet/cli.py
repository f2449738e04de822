"""Command line front end: synth, train, sweep, and report.

Every command is deterministic given its flags, input file bytes, and
seed. Commands that create an output directory also write a single
manifest.json recording the command line, input hashes, seed, tool
version, timestamp, and the Python, numpy, BLAS and worker count that
ran it (trained weights depend on the BLAS), so a run can be
re-executed exactly. A sweep's manifest also records each spec's
seconds, which sweep prints to stderr as well.

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
import ctypes
import functools
import hashlib
import json
import os
import platform
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import BATTERIES, SplitSpec, load_csv, synthesize_dataset, write_csv
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
    ComparisonReport,
    ComparisonRow,
    ConfusionMatrix,
    ExperimentSpec,
    RunResult,
    _openblas,
    battery_medians,
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
    out = args.out_dir or os.environ.get("FASDNET_OUT_DIR")
    if not out:
        raise ConfigError(
            "no output directory: pass --out-dir or set FASDNET_OUT_DIR"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None if none is
    found (another BLAS, or no /proc/self/maps)."""
    get_threads = _openblas("get_num_threads")
    if get_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


@functools.cache
def _environment() -> dict:
    """The Python, numpy and BLAS of this process, found once."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def _write_manifest(out_dir: Path, argv, seed, config_hash, data_hash,
                    workers: int = 1, **extra) -> None:
    doc = {
        "command_line": ["fasdnet"] + list(argv),
        "config_hash": config_hash,
        "data_file_hash": data_hash,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "environment": {**_environment(), "workers": workers},
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
        split=SplitSpec(args.train_fraction, stratified=True, seed=0),
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
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    out_dir = _out_dir(args)
    sweep = run_sweep(specs, ds, seeds)
    (out_dir / "runs.csv").write_text(sweep.runs_csv_text(), encoding="utf-8")
    (out_dir / "summary.txt").write_text(sweep.summary_text(), encoding="utf-8")
    (out_dir / "summary.json").write_text(
        sweep.summary_json_text(), encoding="utf-8"
    )
    config_digest = _sha256_text("".join(s.config.to_json() for s in specs))
    timings = sweep.timings()
    _write_manifest(out_dir, argv, seeds[0], config_digest, data_hash,
                    sweep.workers, timings=timings)
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
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    user = {}
    if args.baselines:
        text = Path(args.baselines).read_text(encoding="utf-8").strip()
        user = json.loads(text) if text else {}
        for battery in user:
            if battery not in BATTERIES:
                raise DataError(
                    f"baselines file names unknown battery {battery!r}"
                )
    baselines = BaselineTable(user=user)

    runs = _runs_from_csv(runs_path, summary)
    try:
        report = comparison_report(runs, baselines)
    except ReportError:
        # no battery has a baseline value: report our medians alone
        report = ComparisonReport(
            [ComparisonRow(battery, ours, None, None, None)
             for battery, ours in battery_medians(runs).items()],
            None,
            None,
        )
    out_dir = _out_dir(args)
    (out_dir / "comparison.csv").write_text(
        report.to_csv_text(), encoding="utf-8"
    )
    (out_dir / "comparison.txt").write_text(report.to_text(), encoding="utf-8")
    _write_manifest(out_dir, argv, 0, _sha256_text(json.dumps(user)),
                    _sha256_file(runs_path))
    sys.stdout.write(report.to_text())
    return EXIT_OK


def _runs_from_csv(runs_path: Path, summary) -> list[RunResult]:
    """Rebuild a sweep's runs from runs.csv, joining each spec to its
    battery in summary.json."""
    battery = {name: s["battery"] for name, s in summary.get("specs", {}).items()}
    runs = []
    with open(runs_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                cm = ConfusionMatrix(*(int(row[k]) for k in ("tp", "fp", "tn", "fn")))
                runs.append(RunResult(
                    row["spec"], battery[row["spec"]], int(row["seed"]),
                    float(row["train_acc"]), float(row["test_acc"]), cm, None,
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReportError(
                    f"{runs_path}:{reader.line_num}: malformed run row or "
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
    p.add_argument("--seeds", required=True, help="comma list of integers")
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


# what argparse would misread: it takes only -1 and -1.5 shaped tokens
# for negative numbers, so it reads -1e3 or -inf as an unknown option
_NEGATIVE_NUMBER = re.compile(r"-([\d.]+[eE][-+]?\d+|inf)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join "--opt -1e3" into "--opt=-1e3", which argparse reads."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_NUMBER.fullmatch(token)):
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
