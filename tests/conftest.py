"""Shared fixtures for the test suite.

A single small synthetic corpus is generated once per session and shared by
every test module that needs corpus-scale objects (store, citation graph,
SurveyBank, search engines, pipeline).  Tests that need full control build
their own tiny graphs/corpora locally instead.
"""

from __future__ import annotations

import pytest

from golden_utils import GOLDEN_CORPUS_CONFIG
from repro.config import CorpusConfig, EvaluationConfig, PipelineConfig
from repro.corpus.generator import CorpusGenerator, GeneratedCorpus
from repro.corpus.storage import CorpusStore
from repro.corpus.vocabulary import build_default_taxonomy
from repro.core.pipeline import RePaGerPipeline
from repro.dataset.surveybank import SurveyBank
from repro.graph.citation_graph import CitationGraph
from repro.search.scholar import GoogleScholarEngine
from repro.venues.rankings import build_default_catalog


# The unit-test corpus is the golden-fixture corpus (tests/golden_utils.py)
# so the session fixtures can be reused by the golden regression suite.
SMALL_CONFIG = GOLDEN_CORPUS_CONFIG


@pytest.fixture(scope="session")
def taxonomy():
    """The default topic taxonomy."""
    return build_default_taxonomy()


@pytest.fixture(scope="session")
def venues():
    """The default venue catalogue."""
    return build_default_catalog()


@pytest.fixture(scope="session")
def corpus(taxonomy, venues) -> GeneratedCorpus:
    """A small, fully deterministic synthetic corpus shared by the session."""
    return CorpusGenerator(SMALL_CONFIG, taxonomy=taxonomy, venues=venues).generate()


@pytest.fixture(scope="session")
def store(corpus) -> CorpusStore:
    """The corpus store of the shared corpus."""
    return corpus.store


@pytest.fixture(scope="session")
def small_store() -> CorpusStore:
    """A small corpus for serving tests that exercise failure paths, not
    path quality: just big enough to solve on."""
    config = CorpusConfig(
        seed=17, papers_per_topic=12, surveys_per_topic=1, citations_per_paper=8.0
    )
    return CorpusGenerator(config).generate().store


@pytest.fixture(scope="session")
def citation_graph(store) -> CitationGraph:
    """Citation graph built from the shared corpus."""
    return CitationGraph.from_papers(store.papers)


@pytest.fixture(scope="session")
def survey_bank(store) -> SurveyBank:
    """SurveyBank benchmark built from the shared corpus."""
    return SurveyBank.from_corpus(store)


@pytest.fixture(scope="session")
def scholar_engine(store, venues) -> GoogleScholarEngine:
    """Google-Scholar simulator indexed over the shared corpus."""
    return GoogleScholarEngine(store, venues=venues)


@pytest.fixture(scope="session")
def pipeline(store, scholar_engine, citation_graph) -> RePaGerPipeline:
    """A default-configuration RePaGer pipeline over the shared corpus."""
    return RePaGerPipeline(store, scholar_engine, graph=citation_graph)


@pytest.fixture(scope="session")
def sample_instance(survey_bank):
    """One benchmark survey with a reasonably large reference list."""
    candidates = [i for i in survey_bank if i.num_references >= 20]
    assert candidates, "the shared corpus should contain at least one usable survey"
    return candidates[0]


@pytest.fixture()
def evaluation_config() -> EvaluationConfig:
    """A small evaluation configuration for fast tests."""
    return EvaluationConfig(k_values=(10, 20, 30), max_surveys=4, min_references=15)


@pytest.fixture()
def pipeline_config() -> PipelineConfig:
    """A default pipeline configuration (fresh per test so it can be replaced)."""
    return PipelineConfig()
