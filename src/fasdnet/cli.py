"""Command line front end: synth, train, sweep, and report.

Every command is deterministic given its flags, input file bytes, and
seed. Commands that create an output directory also write a single
manifest.json recording the command line, input hashes, seed, tool
version, and timestamp, so a run can be re-executed exactly.

Exit codes: 0 success, 2 usage, 3 data error (including missing or
malformed input files), 4 configuration error, 5 training divergence,
6 filesystem error, 7 a sweep in which every run failed. The default
output directory can be set with the FASDNET_OUT_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .data import (
    BATTERIES,
    SYNTHETIC,
    load_csv,
    synthesize_dataset,
    write_csv,
)
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


def _write_manifest(out_dir: Path, argv, seed, config_hash, data_hash) -> None:
    doc = {
        "command_line": ["fasdnet"] + list(argv),
        "config_hash": config_hash,
        "data_file_hash": data_hash,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )


def _load_dataset(args):
    path = Path(args.data)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    return load_csv(path, args.battery), _sha256_file(path)


def _resolve_train_spec(args) -> ExperimentSpec:
    """A builtin name, or a network-config JSON file wrapped in an
    experiment spec using the command's split/balance/ablate flags."""
    token = args.spec
    if token in REGISTRY:
        spec = REGISTRY[token]
        if args.ablate:
            spec = ExperimentSpec(
                spec.name, spec.battery, spec.config, spec.split,
                spec.balance, tuple(args.ablate.split(",")),
            )
        return spec
    path = Path(token)
    if not path.is_file():
        raise ConfigError(
            f"{token!r} is neither a builtin experiment name nor a config "
            f"file; builtin names: {sorted(REGISTRY)}"
        )
    config = NetworkConfig.from_json(path.read_text(encoding="utf-8"))
    from .data import SplitSpec

    return ExperimentSpec(
        name=path.stem,
        battery=args.battery,
        config=config,
        split=SplitSpec(args.train_fraction, stratified=True, seed=0),
        balance=args.balance,
        ablate=tuple(args.ablate.split(",")) if args.ablate else (),
    )


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
    spec = _resolve_train_spec(args)
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
    specs = _resolve_sweep_specs(args)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    out_dir = _out_dir(args)
    sweep = run_sweep(specs, ds, seeds)
    (out_dir / "runs.csv").write_text(sweep.runs_csv_text(), encoding="utf-8")
    (out_dir / "summary.txt").write_text(sweep.summary_text(), encoding="utf-8")
    (out_dir / "summary.json").write_text(
        sweep.summary_json_text(), encoding="utf-8"
    )
    config_digest = _sha256_text(
        "".join(spec.config.to_json() for spec in specs)
    )
    _write_manifest(out_dir, argv, seeds[0] if seeds else 0, config_digest,
                    data_hash)
    sys.stdout.write(sweep.summary_text())
    print(f"{len(sweep.results)} runs ({len(sweep.failures)} failed); "
          f"artifacts in {out_dir}")
    if not sweep.results:
        print(f"error: all {len(sweep.failures)} runs failed", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


def _resolve_sweep_specs(args) -> list[ExperimentSpec]:
    token = args.specs
    path = Path(token)
    if path.is_dir():
        from .data import SplitSpec

        specs = []
        for file in sorted(path.glob("*.json")):
            config = NetworkConfig.from_json(file.read_text(encoding="utf-8"))
            specs.append(
                ExperimentSpec(
                    name=file.stem,
                    battery=args.battery,
                    config=config,
                    split=SplitSpec(args.train_fraction, stratified=True, seed=0),
                    balance=args.balance,
                )
            )
        if not specs:
            raise ConfigError(f"no *.json config files in directory {path}")
        return specs
    return resolve_specs(token)


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
        epilog="exit codes: 0 ok, 2 usage, 3 data, 4 config, 5 divergence, "
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FasdnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
