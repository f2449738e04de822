"""Dense neural networks for FASD-vs-control tabular classification.

A small, dependency-light toolkit: float64 matrix kernels, dense layers
with explicit backpropagation, Adam, deterministic data handling for
five clinical screening batteries (plus synthetic stand-ins), a
registry of experiment configurations, and a command line front end.
Every run is reproducible from a single integer seed.

The names below are the documented API (README's quick start and the
demos). Everything else is imported from its module, for example
fasdnet.experiment.REGISTRY or fasdnet.errors.DataError.
"""

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
