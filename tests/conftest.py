"""Shared fixtures: small corpora and a fitted Namer.

Session scope keeps the expensive pieces (corpus generation, mining,
points-to over every file) to one run for the whole suite.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.namer import Namer, NamerConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.corpus.javagen import generate_java_corpus
from repro.evaluation.oracle import Oracle
from repro.evaluation.precision import sample_balanced_training
from repro.mining.miner import MiningConfig

#: mining thresholds scaled down to the small test corpora
SMALL_MINING = MiningConfig(min_pattern_support=10, min_path_frequency=5)


@pytest.fixture(scope="session")
def small_corpus():
    return generate_python_corpus(
        GeneratorConfig(num_repos=12, issue_rate=0.15, seed=99)
    )


@pytest.fixture(scope="session")
def small_java_corpus():
    return generate_java_corpus(
        GeneratorConfig(num_repos=10, issue_rate=0.15, seed=99)
    )


@pytest.fixture(scope="session")
def fitted_namer(small_corpus):
    """A Namer mined over the small corpus with a trained classifier."""
    namer = Namer(NamerConfig(mining=SMALL_MINING))
    namer.mine(small_corpus)
    oracle = Oracle(small_corpus)
    violations = namer.all_violations()
    rng = random.Random(5)
    training, labels = sample_balanced_training(violations, oracle, 80, rng)
    if len(set(labels)) > 1:
        namer.train(training, labels)
    return namer


@pytest.fixture(scope="session")
def small_oracle(small_corpus):
    return Oracle(small_corpus)


@pytest.fixture(scope="session")
def mined_document():
    """``mined_document(config, corpus, miner_class=None)``: the JSON
    document of a Namer mined with ``config`` — through ``miner_class``
    in place of the production miner when given — without the
    wall-clock phase timings."""
    import repro.core.namer as namer_mod
    from repro.core.persistence import namer_to_document

    def mine(config, corpus, miner_class=None) -> str:
        original = namer_mod.PatternMiner
        if miner_class is not None:
            namer_mod.PatternMiner = miner_class
        try:
            namer = Namer(config)
            namer.mine(corpus)
        finally:
            namer_mod.PatternMiner = original
        doc = namer_to_document(namer)
        doc.pop("phase_timings", None)
        return json.dumps(doc, sort_keys=True)

    return mine
