"""The single synthetic-data entry point: the entity-resolution datasets.

The paper (DIAL, VLDB 2021) evaluates on record lists: five synthetic
versions of the DeepMatcher/Magellan benchmarks plus a multilingual
parallel corpus. The generators live in repro.data (vocabularies,
corruption model with Zipfian token popularity, dataset assembly) and
are re-exported here.
"""
from repro.data.er_synth import DATASET_SPECS, ERDataset, make_dataset  # noqa: F401
from repro.data.multilingual import make_multilingual  # noqa: F401
