import pytest

from geotax.core.rng import SeedSpec, rng_create


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Every test runs in its own directory, so a CLI run without
    ``--out-dir`` writes its ``geotax-run/`` there, not into the checkout."""
    monkeypatch.chdir(tmp_path)


def _offline(url):
    raise OSError(f"tests open no connection: {url}")


@pytest.fixture(autouse=True)
def _no_network(monkeypatch):
    """Every test stays off the network: the genome endpoint's default
    transport raises ``OSError``, so a stray ``genome-rest`` fetch exits 4
    at once.  A test that sets its own transport still overrides it."""
    monkeypatch.setattr("geotax.ingest.fetch.default_transport", _offline)


@pytest.fixture
def rng():
    return rng_create(SeedSpec(320, "tests"))


def random_embedding(rng, n, d):
    return rng.standard_normal((n, d))
