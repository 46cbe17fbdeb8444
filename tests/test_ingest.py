import re

import pytest

from geotax.core.sequence import DNA, PROTEIN
from geotax.errors import ConfigError, DataError
from geotax.ingest.config import Config, Key, boolean, int_list
from geotax.ingest.fasta import FastaRecord, parse_fasta, write_fasta


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
