"""Bounded-memory incremental Hoeffding tree learning for data streams.

The package has four layers: streaming quantile sketches (sketch), the
fixed-capacity tree learner itself (tree), flat binary snapshots
(serialize), and the data/evaluation harness (datasets, harness). A small
CLI in streamtree.cli fronts the common workflows.
"""

from .datasets import (
    BANK_SCHEMA,
    COVERTYPE_SCHEMA,
    CsvSchema,
    DatasetSpec,
    generate_clusters,
    load_csv,
    write_samples_csv,
)
from .harness import (
    Bundle,
    PrequentialReport,
    mem_report,
    process_bundle,
    run_prequential,
    split_into_bundles,
)
from .serialize import deserialize, model_bytes, serialize
from .sketch import QuantileSketch, quantile_targets
from .tree import (
    Hyperparams,
    LeafStats,
    Sample,
    Tree,
    hoeffding_bound,
    split_gain,
)

__version__ = "0.1.0"

__all__ = [
    "BANK_SCHEMA",
    "COVERTYPE_SCHEMA",
    "Bundle",
    "CsvSchema",
    "DatasetSpec",
    "Hyperparams",
    "LeafStats",
    "PrequentialReport",
    "QuantileSketch",
    "Sample",
    "Tree",
    "deserialize",
    "generate_clusters",
    "hoeffding_bound",
    "load_csv",
    "mem_report",
    "model_bytes",
    "process_bundle",
    "quantile_targets",
    "run_prequential",
    "serialize",
    "split_gain",
    "split_into_bundles",
    "write_samples_csv",
]
