"""Train one network on synthetic data and read the results.

Generates a linearly separable two-class set, splits it the way the
experiment runner would, trains a small standardizing network, and
prints the loss curve excerpt plus the confusion matrix. Every number
here is reproducible: rerunning the script gives identical output.
"""

import numpy as np

from fasdnet import (
    RELU,
    SIGMOID,
    NetworkConfig,
    SeededRng,
    SplitSpec,
    confusion_matrix,
    stratified_split,
    synthesize_dataset,
    train,
)

# 40 subjects per class, 12 features, a clear (but not trivial) class
# separation; even-numbered features sit near 0, odd ones near 70 --
# the deliberately mixed scales that make standardization matter
ds = synthesize_dataset(40, 12, 2.5, SeededRng(11))
print(f"dataset: {ds.n_rows} rows x {ds.n_features} features, "
      f"class counts {ds.class_counts()}")

train_set, test_set = stratified_split(ds, SplitSpec(0.8, seed=1))
print(f"split: {train_set.n_rows} train / {test_set.n_rows} test")

config = NetworkConfig(
    input_dim=ds.n_features,
    layers=((16, RELU), (1, SIGMOID)),
    loss="binary",
    use_feature_layer=True,   # per-feature z-scores, fitted on train only
    epochs=60,
    learning_rate=0.001,
    seed=0,
)
model, history = train(config, train_set.x, train_set.y,
                       test_set.x, test_set.y)

print("\nepoch  train_loss  train_acc  val_loss  val_acc")
for k in (0, 9, 19, 39, 59):
    print(f"{k + 1:5d}  {history.train_loss[k]:10.4f}  "
          f"{history.train_acc[k]:9.3f}  {history.val_loss[k]:8.4f}  "
          f"{history.val_acc[k]:7.3f}")

cm = confusion_matrix(model.predict(test_set.x), test_set.y)
print("\nconfusion matrix on the held-out rows (percent of total):")
print(cm.to_text())

# the model serializes to a single JSON document and comes back intact
packed = model.to_json()
restored = type(model).from_json(packed)
same = np.array_equal(restored.predict(test_set.x), model.predict(test_set.x))
print(f"round-tripped model predicts identically: {same}")
