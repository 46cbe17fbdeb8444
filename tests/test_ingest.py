import json
import re

import numpy as np
import pytest

from geotax.core.rng import SeedSpec
from geotax.core.sequence import DNA, PROTEIN
from geotax.errors import ConfigError, DataError, NetworkError
from geotax.ingest.cache import ResultCache, cache_key, canonical_key_string
from geotax.ingest.config import Config, Key, boolean, int_list
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
    with pytest.raises(DataError, match=f"{path}: record 'only-header' has an empty sequence"):
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
    assert rec.decode(DNA, "r.fasta").to_string() == "ACGT"
    assert FastaRecord("p", "mkwv").decode(PROTEIN, "p.fasta").to_string() == "MKWV"
    with pytest.raises(DataError, match="r.fasta: record 'r': symbol 'N' not in alphabet dna"):
        FastaRecord("r", "acgtn").decode(DNA, "r.fasta")


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


# a key table for one experiment, "x": every parser, a bound, choices, a
# family, a required key and the two forms of an unread condition
TABLE = (
    Key("n", "--n", {"x": 30}, int, minimum=1),
    Key("rate", None, {"x": 0.5}, float),
    Key("flag", None, {"x": False}, boolean),
    Key("seeds", None, {"x": (1, 2)}, int_list),
    Key("mode", None, {"x": "a"}, choices=("a", "b")),
    Key("pert.<name>", None, {"x": {}}),
    Key("path", None, {"x": None}, required=True, unread_with=("mode=b",)),
    Key("length", None, {"x": 100}, int, unread_with=("path",)),
    Key("other", None, {"y": 1}, int),
)


def test_config_parse_sections_and_types():
    cfg = Config.parse(
        "experiment = x\n"
        "# comment\n"
        "n = 30\n"
        "pert.snp = data/snp.emb1\n"
        "flag = true\n"
        "rate = 0.05\n"
        "path = a.emb1\n"
    )
    settings = cfg.check(TABLE, "x")
    assert settings == {"n": 30, "rate": 0.05, "flag": True, "seeds": (1, 2), "mode": "a",
                        "pert.<name>": {"snp": "data/snp.emb1"}, "path": "a.emb1",
                        "length": 100}
    assert settings.source == "<string>"
    assert TABLE[5].reads == {"x": {}}  # a family's items do not leak into its default


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        Config.parse("a = 1\nnot a pair\n", source="test.cfg")
    assert "test.cfg:2" in str(err.value)


def test_config_missing_key_named():
    cfg = Config.parse("experiment = x\n", source="t.cfg")
    with pytest.raises(ConfigError) as err:
        cfg.check(TABLE, "x")
    assert "'path'" in str(err.value)


@pytest.mark.parametrize("text, err", [
    ("n = 3.5", "key 'n': '3.5' is not an integer"),
    ("rate = fast", "key 'rate': 'fast' is not a number"),
    ("flag = maybe", "key 'flag': 'maybe' is not a boolean"),
    ("seeds = 1,,2", "key 'seeds': '1,,2' is not a comma-separated integer list"),
    ("n = 0", "key 'n': 0 is below 1"),
    ("mode = c", "key 'mode': 'c' is not one of a, b"),
    ("nn = 3", "unknown key 'nn' for experiment x"),
    ("other = 3", "unknown key 'other' for experiment x"),
    ("path = a.emb1\nlength = 5", "key 'length' goes unread with path = a.emb1"),
    ("mode = b\npath = a.emb1", "key 'path' goes unread with mode = b"),
    ("n = 3", "missing required key 'path'"),
], ids=["int", "float", "bool", "int-list", "minimum", "choices", "typo", "other-experiment",
        "unread-with-key", "unread-with-value", "required"])
def test_config_check_refuses_a_key_naming_it(text, err):
    cfg = Config.parse(f"experiment = x\n{text}\n", source="t.cfg")
    with pytest.raises(ConfigError, match=f"^t.cfg: {re.escape(err)}$"):
        cfg.check(TABLE, "x")


def test_config_check_waives_a_required_key_where_it_goes_unread():
    assert Config.parse("mode = b\n").check(TABLE, "x")["path"] is None


def test_config_duplicate_key():
    with pytest.raises(ConfigError):
        Config.parse("a = 1\na = 2\n")


def test_config_round_trip():
    text = "a = 1\nb.c = two\n"
    assert Config.parse(text).dump() == text



@pytest.mark.parametrize("key, value", [
    ("path", "r#1/a.emb1"), ("name", "a\nb"), ("condition", " model"), ("condition", "model "),
    ("a\rb", "x"), ("path", "a\0b"),
], ids=["hash", "newline", "leading-space", "trailing-space", "return-in-key", "nul"])
def test_config_dump_refuses_an_item_parse_would_not_read_back(key, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(repr(key))} = .* would not read back "):
        Config({"a": "1", key: value}).dump()

# -- fetch ---------------------------------------------------------------------


def fetch_served(monkeypatch, spec, transport, cache):
    """``fetch_genome(spec, cache)`` with ``transport`` standing in for the
    network, as the module's default transport."""
    monkeypatch.setattr("geotax.ingest.fetch.default_transport", transport)
    return fetch_genome(spec, cache)


def test_fetch_serves_repeats_from_cache(tmp_path, monkeypatch):
    dna = "ACGT" * 25
    spec = FetchSpec(chromosome="chr17", start=100, end=200)
    transport = RecordingTransport(default=genome_response(dna))
    cache = ResultCache(tmp_path / "c")
    first = fetch_served(monkeypatch, spec, transport, cache)
    assert len(transport.calls) == 1
    second = fetch_served(monkeypatch, spec, transport, cache)
    assert len(transport.calls) == 1  # zero new network calls
    assert (first.symbols == second.symbols).all()


def test_fetch_cache_hit_equals_cold_run(tmp_path, monkeypatch):
    dna = "ACGTTGCA" * 25
    spec = FetchSpec(chromosome="chr1", start=0, end=200)
    cold = fetch_served(monkeypatch, spec, RecordingTransport(default=genome_response(dna)),
                        ResultCache(tmp_path / "cold"))
    cache = ResultCache(tmp_path / "c")
    fetch_served(monkeypatch, spec, RecordingTransport(default=genome_response(dna)), cache)
    warm = fetch_served(monkeypatch, spec, RecordingTransport(default=(500, b"")), cache)
    assert (warm.symbols == cold.symbols).all()


def test_fetch_rejects_too_many_ambiguous(tmp_path, monkeypatch):
    dna = "N" * 10 + "ACGT" * 25  # ~9% N
    spec = FetchSpec(chromosome="chr2", start=0, end=110)
    with pytest.raises(DataError, match="9.1% ambiguous bases exceeds the 5% budget"):
        fetch_served(monkeypatch, spec, RecordingTransport(default=genome_response(dna)),
                     ResultCache(tmp_path / "c"))


def test_fetch_replace_policy_is_seeded(tmp_path, monkeypatch):
    dna = "N" * 10 + "ACGT" * 25
    spec = FetchSpec(
        chromosome="chr2", start=0, end=110, n_policy="replace", seed=SeedSpec(320)
    )
    a, b = (fetch_served(monkeypatch, spec, RecordingTransport(default=genome_response(dna)),
                         ResultCache(tmp_path / name)) for name in ("a", "b"))
    assert (a.symbols == b.symbols).all()
    assert len(a) == 110


def test_fetch_http_error(tmp_path, monkeypatch):
    spec = FetchSpec(chromosome="chr3", start=0, end=10)
    with pytest.raises(NetworkError, match="genome endpoint returned 503"):
        fetch_served(monkeypatch, spec, RecordingTransport(default=(503, b"")),
                     ResultCache(tmp_path / "c"))


def test_fetch_connection_failure_maps_to_network_error(tmp_path, monkeypatch):
    def broken_transport(url):
        raise ConnectionError("refused")

    spec = FetchSpec(chromosome="chr3", start=0, end=10)
    with pytest.raises(NetworkError, match="fetch failed: refused"):
        fetch_served(monkeypatch, spec, broken_transport, ResultCache(tmp_path / "c"))


def test_synthetic_fetch_deterministic(tmp_path):
    spec = FetchSpec(source="synthetic", start=0, end=500, seed=SeedSpec(7))
    a = fetch_genome(spec, ResultCache(tmp_path / "c"))
    b = fetch_genome(spec, ResultCache(tmp_path / "c"))
    assert (a.symbols == b.symbols).all()
    assert len(a) == 500
    assert not (tmp_path / "c").exists()  # a synthetic span is never cached


def test_synthetic_sequence_matches_seed():
    a = synthetic_sequence(64, SeedSpec(320, "s"))
    b = synthetic_sequence(64, SeedSpec(320, "s"))
    c = synthetic_sequence(64, SeedSpec(321, "s"))
    assert (a.symbols == b.symbols).all()
    assert (a.symbols != c.symbols).any()
