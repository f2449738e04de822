"""Golden outputs: artifact digests pinned to a recorded numpy/BLAS build.

The rerun tests elsewhere compare a run with itself, so they cannot see
a change that reorders the floating-point arithmetic. This test can: it
runs a fixed `synth`, and a fixed `train` and `sweep` on the committed
CSV `golden/synth.csv`, and compares the SHA-256 of each artifact with
`golden/digests.json`. The `synth` file depends on the random stream
and the C library's log and cos, not on the BLAS.

Trained weights depend on the BLAS summation order, so the digests hold
only for the numpy/BLAS build recorded next to them, and only under the
kernel OpenBLAS picks for the CPU (SkylakeX when they were recorded); a
failure names the running kernel. A change that
alters the numbers on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/digests.json
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fasdnet.cli import EXIT_OK, main
from fasdnet.experiment import _blas_core

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    # 200 x 2 rows x 48 features: 19,200 normals, three draw blocks
    "synth": (
        ["synth", "--samples-per-class", "200", "--features", "48",
         "--separation", "0.7", "--seed", "3"],
        ("synth.csv",),
    ),
    "train": (
        ["train", "--battery", "synthetic", "--spec",
         "psychometric-feature-layer", "--seed", "0"],
        ("history.csv", "model.json"),
    ),
    "sweep": (
        ["sweep", "--battery", "synthetic", "--specs",
         "table2-row1,psychometric-feature-layer", "--seeds", "0,1"],
        ("runs.csv",),
    ),
}


def numeric_identity() -> dict:
    """The numpy version and BLAS build that set the summation order."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def current_digests(work_dir: Path) -> dict:
    digests = {}
    for run, (argv, artifacts) in RUNS.items():
        out_dir = work_dir / run
        if run == "synth":
            io = ["--out", str(out_dir / "synth.csv")]
        else:
            io = ["--data", str(GOLDEN / "synth.csv"), "--out-dir", str(out_dir)]
        code = main(argv + io)
        assert code == EXIT_OK, f"{run} exited {code}"
        for name in artifacts:
            data = (out_dir / name).read_bytes()
            digests[f"{run}/{name}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_artifacts_match_golden_digests(tmp_path):
    recorded = json.loads((GOLDEN / "digests.json").read_text())
    got = current_digests(tmp_path)
    changed = sorted(k for k in recorded["digests"]
                     if got.get(k) != recorded["digests"][k])
    assert not changed, (
        f"artifacts {changed} differ from the golden digests; recorded "
        f"under {recorded['identity']}, running under {numeric_identity()} "
        f"with the {_blas_core()} BLAS kernel"
    )


if __name__ == "__main__":
    # the commands' own progress lines must not mix into the JSON
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        doc = {"identity": numeric_identity(),
               "digests": current_digests(Path(tmp))}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
