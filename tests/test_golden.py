"""Golden outputs: artifact digests pinned to a recorded numpy/BLAS build.

The rerun tests elsewhere compare a run with itself, so they cannot see
a change that reorders the floating-point arithmetic. This test can: it
runs a fixed `synth`, and a fixed `train` and `sweep` on the committed
CSV `golden/synth.csv`, and compares the SHA-256 of each artifact with
`golden/digests.json`.

The `synth` file depends on the random stream and the C library's log
and cos, not on the BLAS or on numpy's SIMD target, so `digests.json`
holds one `portable` digest for it, which test_synth_is_portable checks
alone. Trained weights depend on the BLAS summation order, which
OpenBLAS sets per CPU kernel: `kernels` holds one digest set per kernel
(SkylakeX, Haswell, Sandybridge, Nehalem), all for the numpy/BLAS build
recorded as `identity` and numpy's AVX-512 SIMD target: under
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" (AVX2) the
SkylakeX set of `train` differs, so the failure message names the SIMD
targets numpy runs (manifest.json's `numpy_simd`). The test checks the
set of the running kernel (experiment._blas_core); a kernel with no
recorded set fails and names the command that records it. Running this file records the running
kernel's set in place, and OPENBLAS_CORETYPE picks the kernel, so a
change that alters the numbers on purpose regenerates every set with

    for core in SkylakeX Haswell Sandybridge Nehalem; do
        OPENBLAS_CORETYPE=$core PYTHONPATH=src python tests/test_golden.py
    done
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fasdnet.cli import EXIT_OK, _environment, main
from fasdnet.experiment import _blas_core

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
# the artifacts whose bytes do not depend on the BLAS kernel
PORTABLE = ("synth/synth.csv",)

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


def current_digests(work_dir: Path, runs=tuple(RUNS)) -> dict:
    digests = {}
    for run in runs:
        argv, artifacts = RUNS[run]
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
    recorded = json.loads(DIGESTS.read_text())
    core = _blas_core()
    assert core in recorded["kernels"], (
        f"no golden digests for the {core} BLAS kernel (recorded: "
        f"{sorted(recorded['kernels'])}); record them with `OPENBLAS_CORETYPE="
        f"{core} PYTHONPATH=src python tests/test_golden.py`"
    )
    want = {**recorded["portable"], **recorded["kernels"][core]}
    got = current_digests(tmp_path)
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, (
        f"artifacts {changed} differ from the golden digests of the {core} "
        f"BLAS kernel; recorded under {recorded['identity']}, running under "
        f"{numeric_identity()} with numpy SIMD targets "
        f"{_environment()['numpy_simd']}"
    )


def test_synth_is_portable(tmp_path):
    # the portable digests alone: CI also runs this under a second numpy
    # SIMD target, where the trained sets need not hold
    recorded = json.loads(DIGESTS.read_text())["portable"]
    assert current_digests(tmp_path, ("synth",)) == recorded, (
        f"synth differs from its portable digest under numpy SIMD targets "
        f"{_environment()['numpy_simd']}"
    )


if __name__ == "__main__":
    # record the running kernel's set and the portable digests, keeping
    # the other kernels' sets while the numpy/BLAS identity is the same;
    # the commands' own progress lines go to stderr
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        got = current_digests(Path(tmp))
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    kernels = doc.get("kernels", {})
    if doc.get("identity") != numeric_identity():
        kernels = {}
    kernels[_blas_core()] = {k: v for k, v in got.items() if k not in PORTABLE}
    doc = {"identity": numeric_identity(),
           "portable": {k: got[k] for k in PORTABLE},
           "kernels": dict(sorted(kernels.items()))}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"recorded the {_blas_core()} kernel; sets: {sorted(kernels)}",
          file=sys.stderr)
