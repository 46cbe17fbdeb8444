"""Exit-code fuzz: byte-mutated inputs reach ``cli.main`` through
``lipschitz``, ``report``, ``walk``, ``perturb``, ``discretize``,
``vq-sweep --data``, ``stability``, ``procrustes``, ``probe``, ``mine``
and ``texture``, and every run ends in 0, 2 or 3, never in an
exception; a run that ends in 2 or 3 leaves no run directory.  Out-of-range, non-finite and
non-numeric values of each subcommand's numeric flags end in 2 or 3.

Inputs are tiny fixtures written under fixed relative names in a fresh
directory per example, so the mutated bytes, and with ``derandomize`` the
examples themselves, are the same on every run.
"""

import json
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geotax.cli as cli
from geotax.core.embedding import EmbeddingMatrix
from geotax.core.io import write_embeddings

WALK = np.array([[0.0, 1.0, 2.0], [1.0, 1.5, 2.0], [2.0, 1.0, 2.5], [2.5, 0.0, 3.0],
                 [3.0, -1.0, 3.0]])
EMB1 = (b"EMB1" + struct.pack("<II", *WALK.shape) + WALK.astype("<f4").tobytes()
        + struct.pack("<B", 0))
CSV = "".join(",".join(f"{v:g}" for v in row) + "\n" for row in WALK).encode()
CONFIG = b"experiment = lipschitz\nlipschitz.embeddings = walk.emb1\nlipschitz.metric = l2\n"
FASTA = b">wt\n" + b"ACGGTCAT" * 5 + b"\n"
MANIFEST = b"walk.emb1,value_noise,0.1,1\nw.fasta,substitute,0.1,2\n"
RANGE = "".join(",".join(f"{v:g}" for v in row) + "\n"
                for row in (WALK.min(0) - 1, WALK.max(0) + 1)).encode()
REPORT = json.dumps(
    {"experiment": "lipschitz",
     "provenance": {"config_echo": CONFIG.decode(), "seed": 320}},
    sort_keys=True,
).encode()
RNG = np.random.default_rng(320)
MATRICES = {name: RNG.standard_normal(shape) for name, shape in (
    ("c.emb1", (40, 6)), ("p.emb1", (40, 6)), ("f.emb1", (40, 2)), ("z.emb1", (40, 3)),
    ("v.emb1", (40, 3)))}
# one embedding row per record of t.fasta, for mine --features-fasta
MATRICES["m.emb1"] = MATRICES["z.emb1"][:7]
DELTAS = "".join(f"{v:.6g}\n" for v in RNG.uniform(0.1, 1.0, 40)).encode()
# 7 records of 12 bases; texture needs at least 7 records of at least 8 bases
TEXTURE = "".join(f">r{i}\n{('ACGGTCATTGCA' * 2)[i : i + 12]}\n" for i in range(7)).encode()

# every example writes all of these (and the MATRICES), then mutates its target
FILES = {"walk.emb1": EMB1, "walk.csv": CSV, "exp.cfg": CONFIG, "report.json": REPORT,
         "w.fasta": FASTA, "man.csv": MANIFEST, "d.emb1": EMB1, "range.csv": RANGE,
         "vq.emb1": EMB1, "labels.csv": b"0\n1\n" * 20, "deltas.csv": DELTAS,
         "t.fasta": TEXTURE}

STABILITY = ["stability", "--clean", "c.emb1", "--pert", "p=p.emb1", "--deltas", "deltas.csv",
             "--splits", "2", "--max-samples", "20", "--bootstrap", "1",
             "--composite-variant", "perturbation"]
PROBE = ["probe", "--embeddings", "c.emb1", "--labels", "labels.csv", "--folds", "2"]

# target -> (file whose bytes are mutated, CLI arguments)
TARGETS = {
    "emb1": ("walk.emb1", ["lipschitz", "--embeddings", "walk.emb1"]),
    "csv": ("walk.csv", ["lipschitz", "--embeddings", "walk.csv", "--metric", "l2"]),
    "config": ("exp.cfg", ["report", "--config", "exp.cfg"]),
    "report": ("report.json", ["report", "--rerun", "report.json"]),
    "fasta-walk": ("w.fasta", ["walk", "--fasta", "w.fasta", "--n-mutations", "4"]),
    "fasta-perturb": ("w.fasta", ["perturb", "--input", "w.fasta", "--kind", "substitute",
                                  "--rate", "0.1", "--output", "out.fasta"]),
    "manifest": ("man.csv", ["perturb", "--manifest", "man.csv"]),
    "discretize-input": ("d.emb1", ["discretize", "--input", "d.emb1", "walk.emb1"]),
    "discretize-range": ("range.csv", ["discretize", "--input", "walk.emb1",
                                       "--range", "range.csv"]),
    # sigmas of 0.05 to 1 give the clean fixture the same distortion at
    # every K, and the 1/ln K fit then exits 3
    "vq-data": ("vq.emb1", ["vq-sweep", "--data", "vq.emb1", "--k-values", "2,3,4",
                            "--sigma", "2", "--intrinsic-dim", "2"]),
}
# Targets whose runs fit, train or score per example: a mutated huge value
# can hold a probe's logistic fit at its iteration cap for a second, so
# they get fewer examples.
ANALYSIS_TARGETS = {
    "stability-clean": ("c.emb1", STABILITY),
    "stability-pert": ("p.emb1", STABILITY),
    "stability-deltas": ("deltas.csv", STABILITY),
    "procrustes": ("p.emb1", ["procrustes", "--clean", "c.emb1", "--pert", "p.emb1"]),
    "probe-embeddings": ("c.emb1", PROBE),
    "probe-labels": ("labels.csv", PROBE),
    "mine-features": ("f.emb1", ["mine", "--features", "f.emb1", "--embeddings", "z.emb1",
                                 "--seeds", "1", "--epochs", "1"]),
    "mine-features-fasta": ("t.fasta", ["mine", "--features-fasta", "t.fasta",
                                        "--embeddings", "m.emb1", "--seeds", "1",
                                        "--epochs", "1"]),
    "texture-fasta": ("t.fasta", ["texture", "--fasta", "t.fasta", "--splits", "2"]),
}

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "set", "insert", "delete")),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for op, pos, value in mutations:
        i = pos % (len(buf) + 1)
        if op == "insert":
            buf.insert(i, value)
        elif buf and i < len(buf):
            if op == "delete":
                del buf[i]
            elif op == "flip":
                buf[i] ^= 1 << (value % 8)
            else:
                buf[i] = value
    return bytes(buf)


@contextmanager
def fresh_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def write_fixtures():
    for name, data in FILES.items():
        with open(name, "wb") as fh:
            fh.write(data)
    for name, x in MATRICES.items():
        write_embeddings(name, EmbeddingMatrix(x))


def check_mutated_run(target, argv, mutations):
    with fresh_directory():
        write_fixtures()
        with open(target, "rb") as fh:
            data = fh.read()
        with open(target, "wb") as fh:
            fh.write(mutate(data, mutations))
        code = cli.main(["--out-dir", "run", *argv])
        assert code in (0, 2, 3)
        assert code == 0 or not os.path.exists("run")


@pytest.mark.parametrize("fixture", sorted(TARGETS))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mutations=MUTATIONS)
def test_cli_mutated_input_exits_0_2_or_3(fixture, mutations):
    check_mutated_run(*TARGETS[fixture], mutations)


@pytest.mark.parametrize("fixture", sorted(ANALYSIS_TARGETS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(mutations=MUTATIONS)
def test_cli_mutated_analysis_input_exits_0_2_or_3(fixture, mutations):
    check_mutated_run(*ANALYSIS_TARGETS[fixture], mutations)


# -- flag values ------------------------------------------------------------------

# runs that exit 0 as they stand; each case below breaks exactly one flag
FLAG_BASES = {
    "gen": ["gen", "--system", "waveform", "--n", "2", "--length", "20"],
    "discretize": ["discretize", "--input", "walk.emb1"],
    "perturb": ["perturb", "--input", "walk.emb1", "--kind", "value_noise", "--output", "o.emb1"],
    "stability": ["stability", "--clean", "c.emb1", "--pert", "p=p.emb1", "--splits", "2",
                  "--max-samples", "20", "--bootstrap", "1"],
    "walk": ["walk", "--n-mutations", "4", "--length", "60"],
    "walk-interpolation": ["walk", "--mode", "interpolation", "--steps", "5"],
    "walk-profiles": ["walk-profiles", "--steps", "5"],
    "mine": ["mine", "--features", "f.emb1", "--embeddings", "z.emb1", "--seeds", "1",
             "--epochs", "2"],
    "mine-sanity": ["mine-sanity", "--n", "32", "--seeds", "1"],
    "texture": ["texture", "--n", "10", "--length", "40", "--splits", "2"],
    "probe": ["probe", "--embeddings", "c.emb1", "--labels", "labels.csv"],
    "vq-sweep": ["vq-sweep", "--data", "v.emb1", "--k-values", "2,4,8", "--sigma", "0.5",
                 "--intrinsic-dim", "2"],
}

NOT_A_NUMBER = st.sampled_from(["", "x", "one", "0x1f", "1,2", "--", "1e"])
NOT_AN_INT = st.one_of(NOT_A_NUMBER, st.sampled_from(["nan", "inf", "-inf", "1.5", "2e3"]))
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])


def below(least):
    return st.one_of(st.integers(-2**70, least - 1).map(str), NOT_AN_INT)


def int_list(bad):
    """Comma-separated integers with one element out of range or not an integer."""
    good = st.lists(st.integers(2, 6).map(str), max_size=3)
    bad = st.one_of(bad.map(str), st.sampled_from(["", "x", "0x1f", "--", "nan", "1.5"]))
    return st.tuples(good, bad, good).map(
        lambda t: ",".join([*t[0], t[1], *t[2]]))


NOT_POSITIVE = st.one_of(
    st.one_of(st.floats(max_value=-1e-300), st.just(0.0), st.just(-0.0)).map(repr),
    NON_FINITE, NOT_A_NUMBER)


FLAG_CASES = {
    ("gen", "--n"): below(1),
    ("gen", "--length"): below(2),
    ("gen", "--components"): below(1),
    ("discretize", "--bins"): below(1),
    ("perturb", "--rate"): st.one_of(
        st.floats(max_value=-1e-300).map(repr),
        st.floats(min_value=1.0, exclude_min=True).map(repr), NON_FINITE, NOT_A_NUMBER),
    ("perturb", "--magnitude"): st.one_of(
        st.floats(max_value=-1e-300).map(repr), NON_FINITE, NOT_A_NUMBER),
    ("stability", "--splits"): below(1),
    ("stability", "--max-samples"): below(10),
    ("stability", "--bootstrap"): below(1),
    ("walk", "--n-mutations"): below(0),
    ("walk", "--length"): below(1),
    ("walk-interpolation", "--steps"): below(2),
    ("walk-profiles", "--steps"): below(2),
    ("mine", "--epochs"): below(1),
    ("mine", "--seeds"): int_list(
        st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))),
    ("mine-sanity", "--n"): below(2),
    ("mine-sanity", "--seeds"): int_list(st.integers(max_value=-1)),
    ("mine-sanity", "--threads"): below(1),
    ("mine-sanity", "--seed"): st.one_of(
        st.integers(max_value=-1).map(str), st.integers(min_value=2**64).map(str), NOT_AN_INT),
    ("texture", "--n"): below(1),
    ("texture", "--length"): below(1),
    ("texture", "--splits"): below(1),
    ("texture", "--bootstrap"): below(1),
    ("probe", "--folds"): st.one_of(below(2), st.integers(41, 2**40).map(str)),
    ("vq-sweep", "--k-values"): int_list(st.integers(max_value=1)),
    ("vq-sweep", "--sigma"): NOT_POSITIVE,
    ("vq-sweep", "--intrinsic-dim"): NOT_POSITIVE,
}
GLOBAL_FLAGS = ("--seed", "--threads")


def exit_code(argv):
    """``cli.main``'s return value, or the code argparse exits with."""
    try:
        return cli.main(["--out-dir", "run", *argv])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("base", sorted(FLAG_BASES))
def test_cli_flag_fuzz_bases_exit_0(base):
    with fresh_directory():
        write_fixtures()
        assert exit_code(FLAG_BASES[base]) == 0


@pytest.mark.parametrize("case", sorted(FLAG_CASES), ids="{0[0]}{0[1]}".format)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_bad_flag_value_exits_2_or_3(case, data):
    base, flag = case
    value = data.draw(FLAG_CASES[case], label=flag)
    argv = list(FLAG_BASES[base])
    if flag in GLOBAL_FLAGS:
        argv = [f"{flag}={value}", *argv]
    else:
        argv.append(f"{flag}={value}")
    with fresh_directory():
        write_fixtures()
        assert exit_code(argv) in (2, 3)
