"""Bundles: one kernel call per batch, the answers of one call per sample.

A bundle is an ordered batch of flagged samples handed to one kernel call.
The kernel routes, answers and absorbs every sample between two split
attempts at once, and its outputs and final model are identical to feeding
the samples one by one. Samples flagged infer-only are answered without
touching the model. The script exits with status 1 if either differs.
"""

import sys

import numpy as np

from streamtree import (
    Bundle,
    Hyperparams,
    Sample,
    Tree,
    process_bundle,
    serialize,
    split_into_bundles,
)

rng = np.random.default_rng(3)
params = Hyperparams(dims=2, classes=2, n_min=50, max_nodes=63)

# two drifting interleaved classes plus occasional inference-only probes
stream = []
for i in range(5000):
    label = i % 2
    x = rng.normal(0, 0.3, 2)
    x[0] += (label - 0.5) * 2.5
    stream.append(Sample(x.astype(np.float32), label, train=rng.random() < 0.9))

bundled_tree = Tree(params)
outputs = []
for bundle in split_into_bundles(stream, capacity=512):
    outputs.extend(process_bundle(bundled_tree, bundle))

single_tree = Tree(params)
reference = [
    single_tree.train(s) if s.train else single_tree.infer(s.features)
    for s in stream
]

same_outputs = outputs == reference
same_model = serialize(bundled_tree) == serialize(single_tree)
print(f"processed {len(stream)} samples in bundles of 512")
print(f"outputs identical to one-at-a-time calls: {same_outputs}")
print(f"final models byte-identical: {same_model}")

infer_only = sum(not s.train for s in stream)
hits = sum(o == s.label for o, s in zip(outputs, stream))
print(f"\n{infer_only} samples were inference-only probes")
print(f"prequential-style accuracy across the stream: {hits / len(stream):.3f}")
print(f"final nodes: {bundled_tree.node_count}")
if not (same_outputs and same_model):
    sys.exit("bundle outputs or the final model differ from one-at-a-time calls")
