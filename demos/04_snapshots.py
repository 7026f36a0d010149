"""Snapshot a trained tree to one flat buffer and bring it back.

The serialized form is a single contiguous buffer sized for the whole node
arena, so a model can be copied to device memory once and synced back after
any number of kernel invocations. serialize() returns it as a read-only
memoryview over fresh zero pages, of which only the header's and the used
records' are ever written; bytes(buf) makes a bytes copy. Restoring is
exact: the snapshot predicts identically and keeps learning from where it
stopped. The script exits with status 1 if the restored tree disagrees or
its re-serialization differs.
"""

import sys

import numpy as np

from streamtree import (
    DatasetSpec,
    Hyperparams,
    Tree,
    deserialize,
    generate_clusters,
    model_bytes,
    run_prequential,
    serialize,
)

spec = DatasetSpec(clusters=4, dims=3, samples=20_000,
                   cluster_spread=0.05, center_box=2.0, seed=21)
stream = generate_clusters(spec)

params = Hyperparams(dims=3, classes=4, tau=0.1, max_nodes=255)
tree = Tree(params)
first_half = run_prequential(tree, stream[:10_000], window=2000)
print(f"after 10k samples: {tree.node_count} nodes, "
      f"accuracy {first_half.accuracy:.3f}")

buf = serialize(tree)
print(f"snapshot: {len(buf)} bytes "
      f"(= closed-form size {model_bytes(params)}, "
      f"{100 * tree.node_count / params.max_nodes:.1f}% of arena in use)")

restored = deserialize(buf)
probes = np.random.default_rng(0).uniform(-2.5, 2.5, (2000, 3)).astype(np.float32)
agree = all(tree.infer(x) == restored.infer(x) for x in probes)
identical = serialize(restored) == buf
print(f"restored tree agrees on 2000 probe points: {agree}")
print(f"re-serialization is byte-identical: {identical}")
if not (agree and identical):
    sys.exit("the restored tree disagrees or re-serializes differently")

second_half = run_prequential(restored, stream[10_000:], window=2000)
print(f"\nresumed training on the snapshot for the second half of the stream:")
print(f"accuracy {second_half.accuracy:.3f}, "
      f"{restored.node_count} nodes (was {tree.node_count})")
