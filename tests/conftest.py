import pytest

from geotax.core.rng import SeedSpec, rng_create


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Every test runs in its own directory, so a CLI run without
    ``--out-dir`` writes its ``geotax-run/`` there, not into the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def rng():
    return rng_create(SeedSpec(320, "tests"))


def random_embedding(rng, n, d):
    return rng.standard_normal((n, d))
