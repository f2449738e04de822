"""Per-width microbenchmark of the dense layer's forward and backward,
and of the text writers and reader.

For every (fan_in, fan_out, activation) a registry spec uses, this times
dense_forward and network_backward on a stack of S in {1, 10} slots of
ROWS rows, once as the public call, which allocates its buffers and
binds its pass, and once as the pass bound to buffers once and run, as
the training loop's workspace runs it every epoch. network_backward runs
on a network of that one layer, so it times the weight and bias
gradients; the product that carries delta to the layer below is the
lower layer's.

It also times whole training runs, train_many on S = 2 slots of
ROWS training and VALID_ROWS validation rows for EPOCHS epochs, for a
small and a large table2 spec and a feature-layer spec; and
TrainedModel.to_json on the registry's largest model, as text and
written to a file as train writes model.json, and write_csv
and load_csv at every battery's shape and at 10,000 x 48; load_csv also
at 10,000 x 48 with every cell padded by \\x0b, which float() skips and
JSON does not, so that every block takes the per-row parse.

The name keeps the file out of the tier-1 run. Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_layers.py

and with --benchmark-disable to run every case once, untimed.
"""

from dataclasses import replace

import numpy as np
import pytest

from fasdnet.data import SCHEMAS, Dataset, load_csv, synthesize_dataset, write_csv
from fasdnet.experiment import REGISTRY
from fasdnet.layers import (
    DenseLayer,
    FeatureNormLayer,
    _backward_buffers,
    _backward_steps,
    _dense_steps,
    _forward_buffers,
    _run,
    dense_forward,
    network_backward,
    network_forward,
    network_init,
)
from fasdnet.rng import SeededRng
from fasdnet.training import _BLOCK, TrainedModel, train_many

# about the training rows of the 129-row psychometric set at 0.75
ROWS = 100
VALID_ROWS = 29
# two history blocks and part of a third
EPOCHS = 2 * _BLOCK + 3


def _registry_layers():
    found = {}
    for spec in REGISTRY.values():
        config = spec.config
        sizes = [config.input_dim] + [width for width, _ in config.layers]
        for fan_in, fan_out, (_, act) in zip(sizes, sizes[1:], config.layers):
            found[(fan_in, fan_out, act.kind)] = act
    return [(fan_in, fan_out, act)
            for (fan_in, fan_out, _), act in sorted(found.items())]


LAYERS = _registry_layers()
CASES = [
    pytest.param(fan_in, fan_out, act, slots, buffered,
                 id=f"{fan_in}-{fan_out}-{act.kind}-S{slots}-"
                    f"{'workspace' if buffered else 'new'}")
    for fan_in, fan_out, act in LAYERS
    for slots in (1, 10)
    for buffered in (False, True)
]


def _layer_and_input(fan_in, fan_out, act, slots):
    rng = SeededRng(fan_in * 1000 + fan_out)

    def draw(*shape):
        return rng.uniforms(int(np.prod(shape))).reshape(shape) - 0.5

    layer = DenseLayer(draw(slots, fan_in, fan_out), draw(slots, 1, fan_out),
                       act)
    return layer, draw(slots, ROWS, fan_in)


@pytest.mark.parametrize("fan_in, fan_out, act, slots, buffered", CASES)
def test_dense_forward(benchmark, fan_in, fan_out, act, slots, buffered):
    layer, x = _layer_and_input(fan_in, fan_out, act, slots)
    if buffered:
        z, a, work, _ = _forward_buffers([layer], ROWS)[0]
        benchmark(_run, _dense_steps(layer, x, z, a, work))
    else:
        z, a = benchmark(dense_forward, layer, x)
    assert a.shape == (slots, ROWS, fan_out) and np.isfinite(a).all()


@pytest.mark.parametrize("fan_in, fan_out, act, slots, buffered", CASES)
def test_network_backward(benchmark, fan_in, fan_out, act, slots, buffered):
    layer, x = _layer_and_input(fan_in, fan_out, act, slots)
    caches, output = network_forward([layer], None, x)
    delta = output / ROWS
    if buffered:
        dw, db = np.empty_like(layer.weights), np.empty_like(layer.bias)
        benchmark(_run, _backward_steps([layer], caches, delta, [dw, db],
                                        _backward_buffers([layer], ROWS)))
    else:
        dw, db = benchmark(network_backward, [layer], caches, delta)
    assert dw.shape == layer.weights.shape and db.shape == layer.bias.shape


@pytest.mark.parametrize("spec_name", ["table2-row1", "table2-row9",
                                       "psychometric-feature-layer"])
def test_train_many_epochs(benchmark, spec_name):
    config = REGISTRY[spec_name].config
    rng = SeededRng(len(spec_name))
    rows = ROWS + VALID_ROWS
    x = rng.normals(2 * rows * config.input_dim).reshape(2, rows, -1)
    y = (rng.uniforms(2 * rows) < 0.5).reshape(2, rows)
    configs = [replace(config, epochs=EPOCHS, seed=s) for s in (0, 1)]
    outcomes = benchmark(train_many, configs, x[:, :ROWS], y[:, :ROWS],
                         x[:, ROWS:], y[:, ROWS:])
    assert [len(history) for _, history, _ in outcomes] == [EPOCHS] * 2


def _parameter_count(config):
    sizes = [config.input_dim] + [width for width, _ in config.layers]
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("to_file", [False, True], ids=["text", "file"])
def test_model_to_json(benchmark, tmp_path, to_file):
    config = max((spec.config for spec in REGISTRY.values()), key=_parameter_count)
    norm = None
    if config.use_feature_layer:
        norm = FeatureNormLayer.fit(
            SeededRng(2).normals(ROWS * config.input_dim).reshape(ROWS, -1))
    model = TrainedModel(config, norm, network_init(config, SeededRng(1)))
    if not to_file:
        text = benchmark(model.to_json)
        assert text.count("\n") > _parameter_count(config)
        return
    path = tmp_path / "model.json"

    def write():
        with open(path, "wb") as fh:
            model.to_json(fh)

    benchmark(write)
    assert path.read_bytes() == model.to_json().encode()


CSV_SHAPES = [
    pytest.param(s.expected_rows, s.expected_feature_count,
                 id=f"{name}-{s.expected_rows}x{s.expected_feature_count}")
    for name, s in SCHEMAS.items()
] + [pytest.param(10_000, 48, id="10000x48")]


def _csv_dataset(rows, features):
    full = synthesize_dataset((rows + 1) // 2, features, 0.7, SeededRng(rows))
    return Dataset("synthetic", full.feature_names, full.x[:rows], full.y[:rows])


@pytest.mark.parametrize("rows, features", CSV_SHAPES)
def test_write_csv(benchmark, tmp_path, rows, features):
    path = tmp_path / "data.csv"
    benchmark(write_csv, _csv_dataset(rows, features), path)
    assert path.read_text().count("\n") == rows + 1


@pytest.mark.parametrize("rows, features, pad", [
    pytest.param(*shape.values, "", id=shape.id) for shape in CSV_SHAPES
] + [pytest.param(10_000, 48, "\x0b", id="10000x48-padded")])
def test_load_csv(benchmark, tmp_path, rows, features, pad):
    ds = _csv_dataset(rows, features)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    if pad:
        header, *lines = path.read_text().rstrip("\n").split("\n")
        path.write_text("\n".join(
            [header] + [pad + line.replace(",", f"{pad},{pad}") + pad
                        for line in lines]) + "\n")
    back = benchmark(load_csv, path, "synthetic")
    assert back.x.tobytes() == ds.x.tobytes()
