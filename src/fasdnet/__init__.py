"""Dense neural networks for FASD-vs-control tabular classification.

A small, dependency-light toolkit: float64 matrix kernels, dense layers
with explicit backpropagation, Adam, deterministic data handling for
five clinical screening batteries (plus synthetic stand-ins), a
registry of experiment configurations, and a command line front end.
Every run is reproducible from a single integer seed.

The names below are the documented API (README's quick start and the
demos). Everything else is imported from its module, for example
fasdnet.experiment.REGISTRY or fasdnet.errors.DataError.

Imported before numpy, fasdnet makes the process's BLAS single-threaded
(OPENBLAS_NUM_THREADS and OMP_NUM_THREADS default to 1, and child
processes inherit them): OpenBLAS reads them when numpy loads it, and a
second thread costs CPU while it starts and never shortens a run here.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _os.environ.setdefault("OMP_NUM_THREADS", "1")

from .data import SplitSpec, load_csv, stratified_split, synthesize_dataset
from .errors import FasdnetError
from .experiment import (
    BaselineTable,
    comparison_report,
    confusion_matrix,
    resolve_specs,
    run_sweep,
)
from .layers import (
    RELU,
    SIGMOID,
    SOFTMAX,
    NetworkConfig,
    leaky_relu,
    network_backward,
    network_forward,
    network_init,
)
from .rng import SeededRng
from .training import loss_forward, loss_grad, train

__version__ = "0.1.0"
