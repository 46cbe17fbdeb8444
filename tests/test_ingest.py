import json

import numpy as np
import pytest

from geotax.core.rng import SeedSpec
from geotax.core.sequence import DNA, PROTEIN
from geotax.errors import ConfigError, DataError, NetworkError
from geotax.ingest.cache import ResultCache, cache_key, canonical_key_string
from geotax.ingest.config import Config
from geotax.ingest.fasta import FastaRecord, parse_fasta, write_fasta
from geotax.ingest.fetch import FetchSpec, fetch_genome, synthetic_sequence


class RecordingTransport:
    """Serves one canned response and records the URLs it was asked for."""

    def __init__(self, default: tuple[int, bytes]):
        self.default = default
        self.calls: list[str] = []

    def __call__(self, url: str) -> tuple[int, bytes]:
        self.calls.append(url)
        return self.default


def genome_response(dna):
    return 200, json.dumps({"dna": dna}).encode()


# -- fasta -------------------------------------------------------------------


def test_fasta_single_record_round_trip(tmp_path):
    path = tmp_path / "x.fasta"
    records = [FastaRecord("seq1 some description", "ACGTACGTAC")]
    write_fasta(records, path)
    back = parse_fasta(path)
    assert back == records


def test_fasta_wrapped_lines_and_crlf(tmp_path):
    path = tmp_path / "x.fasta"
    path.write_bytes(b">rec1\r\nACGT\r\nACGT\r\n>rec2\r\nTTTT\r\n")
    records = parse_fasta(path)
    assert records[0].sequence == "ACGTACGT"
    assert records[1] == FastaRecord("rec2", "TTTT")


def test_fasta_multi_record_round_trip(tmp_path):
    path = tmp_path / "multi.fasta"
    records = [FastaRecord(f"r{i}", "ACGT" * (i + 30)) for i in range(5)]
    write_fasta(records, path)
    assert parse_fasta(path) == records


def test_fasta_empty_record_rejected(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text(">only-header\n>another\nACGT\n")
    with pytest.raises(DataError, match="record 'only-header' has an empty sequence"):
        parse_fasta(path)


def test_fasta_data_before_header(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text("ACGT\n>rec\nACGT\n")
    with pytest.raises(DataError, match=f"{path}:1: sequence data before any header"):
        parse_fasta(path)


def test_fasta_non_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin.fasta"
    path.write_bytes(b">a\nAC\xe9GT\n")
    with pytest.raises(DataError, match=f"{path}: not UTF-8 text"):
        parse_fasta(path)


def test_fasta_record_decode_upper_cases():
    rec = FastaRecord("r", "acgT")
    assert rec.decode(DNA).to_string() == "ACGT"
    assert FastaRecord("p", "mkwv").decode(PROTEIN).to_string() == "MKWV"
    with pytest.raises(DataError, match="symbol 'N' not in alphabet dna"):
        FastaRecord("r", "acgtn").decode(DNA)


# -- cache --------------------------------------------------------------------


def test_cache_key_deterministic_and_versioned():
    a = cache_key("fetch", chrom="chr1", start=5)
    b = cache_key("fetch", start=5, chrom="chr1")  # order-insensitive
    assert a == b
    assert "geotax/" in canonical_key_string("fetch", start=5)


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = cache_key("op", x=1)
    assert cache.get(key) is None
    cache.put(key, b"payload")
    assert cache.get(key) == b"payload"


# -- config ---------------------------------------------------------------------


def test_config_parse_sections_and_types():
    cfg = Config.parse(
        "experiment = stability\n"
        "# comment\n"
        "stability.n_splits = 30\n"
        "stability.pert.snp = data/snp.emb1\n"
        "flag = true\n"
        "rate = 0.05\n"
    )
    assert cfg.require("experiment") == "stability"
    assert cfg.get_int("stability.n_splits") == 30
    assert cfg.get_bool("flag") is True
    assert cfg.get_float("rate") == 0.05
    assert cfg.section("stability.pert") == {"snp": "data/snp.emb1"}


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        Config.parse("a = 1\nnot a pair\n", source="test.cfg")
    assert "test.cfg:2" in str(err.value)


def test_config_missing_key_named():
    cfg = Config.parse("a = 1\n", source="t.cfg")
    with pytest.raises(ConfigError) as err:
        cfg.require("experiment")
    assert "experiment" in str(err.value)


def test_config_duplicate_key():
    with pytest.raises(ConfigError):
        Config.parse("a = 1\na = 2\n")


def test_config_round_trip():
    text = "a = 1\nb.c = two\n"
    assert Config.parse(text).dump() == text


# -- fetch ---------------------------------------------------------------------


def test_fetch_serves_repeats_from_cache(tmp_path):
    dna = "ACGT" * 25
    spec = FetchSpec(chromosome="chr17", start=100, end=200)
    transport = RecordingTransport(default=genome_response(dna))
    cache = ResultCache(tmp_path / "c")
    first = fetch_genome(spec, transport, cache)
    assert len(transport.calls) == 1
    second = fetch_genome(spec, transport, cache)
    assert len(transport.calls) == 1  # zero new network calls
    assert (first.symbols == second.symbols).all()


def test_fetch_cache_hit_equals_cold_run(tmp_path):
    dna = "ACGTTGCA" * 25
    spec = FetchSpec(chromosome="chr1", start=0, end=200)
    cold = fetch_genome(spec, RecordingTransport(default=genome_response(dna)), None)
    cache = ResultCache(tmp_path / "c")
    fetch_genome(spec, RecordingTransport(default=genome_response(dna)), cache)
    warm = fetch_genome(spec, RecordingTransport(default=(500, b"")), cache)
    assert (warm.symbols == cold.symbols).all()


def test_fetch_rejects_too_many_ambiguous():
    dna = "N" * 10 + "ACGT" * 25  # ~9% N
    spec = FetchSpec(chromosome="chr2", start=0, end=110)
    with pytest.raises(DataError, match="9.1% ambiguous bases exceeds the 5% budget"):
        fetch_genome(spec, RecordingTransport(default=genome_response(dna)))


def test_fetch_replace_policy_is_seeded():
    dna = "N" * 10 + "ACGT" * 25
    spec = FetchSpec(
        chromosome="chr2", start=0, end=110, n_policy="replace", seed=SeedSpec(320)
    )
    a = fetch_genome(spec, RecordingTransport(default=genome_response(dna)))
    b = fetch_genome(spec, RecordingTransport(default=genome_response(dna)))
    assert (a.symbols == b.symbols).all()
    assert len(a) == 110


def test_fetch_http_error():
    spec = FetchSpec(chromosome="chr3", start=0, end=10)
    with pytest.raises(NetworkError, match="genome endpoint returned 503"):
        fetch_genome(spec, RecordingTransport(default=(503, b"")))


def test_fetch_connection_failure_maps_to_network_error():
    def broken_transport(url):
        raise ConnectionError("refused")

    spec = FetchSpec(chromosome="chr3", start=0, end=10)
    with pytest.raises(NetworkError, match="fetch failed: refused"):
        fetch_genome(spec, broken_transport)


def test_synthetic_fetch_deterministic():
    spec = FetchSpec(source="synthetic", start=0, end=500, seed=SeedSpec(7))
    a = fetch_genome(spec)
    b = fetch_genome(spec)
    assert (a.symbols == b.symbols).all()
    assert len(a) == 500


def test_synthetic_sequence_matches_seed():
    a = synthetic_sequence(64, SeedSpec(320, "s"))
    b = synthetic_sequence(64, SeedSpec(320, "s"))
    c = synthetic_sequence(64, SeedSpec(321, "s"))
    assert (a.symbols == b.symbols).all()
    assert (a.symbols != c.symbols).any()
