import pathlib

import numpy as np
import pytest
from hypothesis import settings

from dregcn_absa.corpus import parse_corpus_file, random_embedding_table

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The same examples on every run, no example database on disk, and no
# per-example deadline for a loaded machine to trip.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def tiny_corpus():
    return parse_corpus_file((FIXTURES / "tiny.corpus").read_text())


@pytest.fixture
def tiny_embeddings(tiny_corpus):
    rng = np.random.default_rng(0)
    words = [w for s in tiny_corpus for w in s.tokens]
    return random_embedding_table(words, 8, rng), random_embedding_table(words, 4, rng)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
