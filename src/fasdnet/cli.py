"""Command line front end: synth, train, sweep, and report.

Every command is deterministic given its flags, input file bytes, and
seed, and writes each file as the UTF-8 bytes of its library text, with
no line end translation. Commands that create an output directory also
write a single manifest.json recording the command line, input hashes,
seed, tool version, timestamp, and the Python, numpy, BLAS and its
kernel (trained weights depend on the BLAS), and for train and sweep
the BLAS thread count and the worker count of the processes that
trained, so a run can be re-executed exactly. A sweep's manifest also
records each spec's seconds, which sweep prints to stderr as well.

Exit codes are listed in README and build_parser's epilog, and errors
map to them in _EXIT_CODES. FASDNET_OUT_DIR sets the default output
directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import BATTERIES, drop_features, load_csv, synthesize_dataset, write_csv
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    FasdnetError,
    ReportError,
)
from .experiment import (
    REGISTRY,
    SPEC_SETS,
    BaselineTable,
    ExperimentSpec,
    SweepResult,
    _blas_core,
    _blas_threads,
    _json_object,
    comma_list,
    comparison_report,
    resolve_specs,
    run_experiment_with_model,
    run_sweep,
)
from .layers import NetworkConfig, _shown
from .rng import SeededRng

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_DIVERGENCE = 5
EXIT_IO = 6
EXIT_ALL_FAILED = 7
# the exit code of each kind of error main catches, most specific first
_EXIT_CODES = ((DivergenceError, EXIT_DIVERGENCE), (ConfigError, EXIT_CONFIG),
               (FasdnetError, EXIT_DATA), (OSError, EXIT_IO))


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
    """This process's Python, numpy and BLAS and the SIMD extensions numpy
    dispatches to, found once; a run sets the BLAS thread count."""
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
    }


def _write_outputs(out_dir: Path, files: dict, argv, seed, config_hash,
                   data_hash, workers: int | None = None, **extra) -> None:
    """Make out_dir, write each {name: text} of files and then
    manifest.json there as UTF-8 bytes, with no line end translation (a
    callable in place of text writes them to the binary file it is
    given); only a command that trained passes workers, its process
    count, which the manifest records with the BLAS thread count."""
    trained = {} if workers is None else {"blas_threads": _blas_threads(),
                                          "workers": workers}
    manifest = {
        "command_line": ["fasdnet"] + list(argv),
        "config_hash": config_hash,
        "data_file_hash": data_hash,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "environment": {**_environment(), **trained},
        **extra,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {**files, "manifest.json": json.dumps(manifest, indent=2) + "\n"}
    for name, text in files.items():
        with open(out_dir / name, "wb") as fh:
            if callable(text):
                text(fh)
            else:
                fh.write(text.encode("utf-8"))


def _load_dataset(args):
    path = Path(args.data)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    return load_csv(path, args.battery), _sha256_file(path)


def _config_spec(path: Path, args, ds) -> ExperimentSpec:
    """A network-config JSON file as an experiment spec named after the
    file, with the command's battery, split (default 0.8) and balance;
    train --spec and sweep --specs share it. Its input_dim must be ds's
    feature count."""
    if path.stem.encode(errors="replace").decode() != path.stem:
        raise ConfigError(f"{str(path)!r}: the file's name is not UTF-8, so "
                          "it cannot name the spec in runs.csv")
    config = _json_object(path, ConfigError, NetworkConfig.from_dict)
    if config.input_dim != ds.n_features:
        raise ConfigError(
            f"{path}: input_dim is {_shown(config.input_dim)}, but the data "
            f"has {ds.n_features} features")
    fraction = 0.8 if args.train_fraction is None else args.train_fraction
    return ExperimentSpec(path.stem, args.battery, config, fraction,
                          args.balance)


def _specs(args, token: str, ds) -> list[ExperimentSpec]:
    """The specs a --spec or --specs token names, to run on ds.
    A token that names no item, a builtin name or set, or no existing
    path goes to resolve_specs, and --train-fraction and --balance, which
    are for config files, are refused there: a builtin spec keeps its
    split. Any other token is a config file or a directory of them."""
    path = Path(token)
    if (not comma_list(token) or token in SPEC_SETS or token in REGISTRY
            or not path.exists()):
        specs = resolve_specs(token)
        if args.balance or args.train_fraction is not None:
            flag = "--balance" if args.balance else "--train-fraction"
            raise ConfigError(f"{flag} applies only to config files, not to "
                              f"builtin {token!r}: a builtin spec keeps its split")
        return specs
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise ConfigError(f"no *.json config files in directory {path}")
    return [_config_spec(file, args, ds) for file in files]


def cmd_synth(args, argv) -> int:
    rng = SeededRng(args.seed)
    ds = synthesize_dataset(args.samples_per_class, args.features,
                            args.separation, rng)
    out = Path(args.out)
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
    ds = drop_features(ds, comma_list(args.ablate))
    specs = _specs(args, args.spec, ds)
    if len(specs) != 1:
        raise ConfigError(f"train runs one spec, and --spec {args.spec!r} "
                          f"names {len(specs)}")
    (spec,) = specs
    out_dir = _out_dir(args)
    result, model, history = run_experiment_with_model(spec, ds, args.seed)
    _write_outputs(
        out_dir,
        {"confusion.txt": result.confusion.to_text(),
         "history.csv": history.to_csv_text(),
         "model.json": model.to_json},
        argv, args.seed, _sha256_text(spec.config.to_json()), data_hash,
        workers=1,
    )
    print(
        f"{spec.name}: train accuracy {100 * result.train_accuracy:.2f}%, "
        f"test accuracy {100 * result.test_accuracy:.2f}% "
        f"({result.confusion.total} test samples); artifacts in {out_dir}"
    )
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    ds, data_hash = _load_dataset(args)
    specs = _specs(args, args.specs, ds)
    out_dir = _out_dir(args)
    sweep = run_sweep(specs, ds, args.seeds)
    config_digest = _sha256_text("".join(s.config.to_json() for s in specs))
    timings = sweep.timings()
    _write_outputs(
        out_dir,
        {"runs.csv": sweep.runs_csv_text(),
         "summary.txt": sweep.summary_text(),
         "summary.json": sweep.summary_json_text()},
        argv, args.seeds[0], config_digest, data_hash, sweep.workers,
        timings=timings,
    )
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
        raise ReportError(f"no sweep results in {results_dir} (need runs.csv "
                          "and summary.json)")
    baselines = BaselineTable()
    if args.baselines:
        baselines = _json_object(Path(args.baselines), DataError, BaselineTable)
    sweep = SweepResult.from_files(runs_path, summary_path)
    report = comparison_report(sweep.results, baselines)
    _write_outputs(
        _out_dir(args),
        {"comparison.csv": report.to_csv_text(),
         "comparison.txt": report.to_text()},
        argv, 0, _sha256_text(json.dumps(baselines.user)),
        _sha256_file(runs_path),
    )
    sys.stdout.write(report.to_text())
    return EXIT_OK


_SPLIT_HELP = "config files only: with a builtin spec it exits 4"
_SPEC_HELP = ("builtin set (table2, feature-layer, all) or comma list of "
              "builtin names, else a network-config JSON file or a directory "
              "of them, whose input_dim must be the data's width (after "
              "train's --ablate); train takes exactly one spec")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each parse_args call
    reads into a new namespace, so one parse leaves nothing for the next."""
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

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", required=True, help="battery CSV path")
    shared.add_argument("--battery", required=True, choices=BATTERIES)
    shared.add_argument("--train-fraction", type=float,
                        help=_SPLIT_HELP + "; default 0.8")
    shared.add_argument("--balance", action="store_true", help=_SPLIT_HELP)
    shared.add_argument("--out-dir", default=None)

    p = sub.add_parser("train", parents=[shared],
                       help="train one configuration and evaluate")
    p.add_argument("--spec", required=True, help=_SPEC_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ablate", default="",
                   help="comma list of feature names to drop before training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", parents=[shared],
                       help="run a set of specs over several seeds")
    p.add_argument("--specs", required=True, help=_SPEC_HELP)
    p.add_argument("--seeds", required=True, type=_seed_list,
                   help="comma list of integers")
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
        return [int(token) for token in comma_list(text)]
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
    except (FasdnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
