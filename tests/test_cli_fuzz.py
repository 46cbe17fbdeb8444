"""Exit-code fuzz: byte-mutated inputs reach ``cli.main`` through
``lipschitz``, ``report``, ``walk`` and ``perturb``, and every run ends in
0, 2 or 3, never in an exception.

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

WALK = np.array([[0.0, 1.0, 2.0], [1.0, 1.5, 2.0], [2.0, 1.0, 2.5], [2.5, 0.0, 3.0],
                 [3.0, -1.0, 3.0]])
EMB1 = (b"EMB1" + struct.pack("<II", *WALK.shape) + WALK.astype("<f4").tobytes()
        + struct.pack("<B", 0))
CSV = "".join(",".join(f"{v:g}" for v in row) + "\n" for row in WALK).encode()
CONFIG = b"experiment = lipschitz\nlipschitz.embeddings = walk.emb1\nlipschitz.metric = l2\n"
FASTA = b">wt\n" + b"ACGGTCAT" * 5 + b"\n"
MANIFEST = b"walk.emb1,value_noise,0.1,1\nw.fasta,substitute,0.1,2\n"
REPORT = json.dumps(
    {"experiment": "lipschitz",
     "provenance": {"config_echo": CONFIG.decode(), "seed": 320}},
    sort_keys=True,
).encode()

# fixture -> (file the mutated bytes go to, CLI arguments)
TARGETS = {
    "emb1": ("walk.emb1", ["lipschitz", "--embeddings", "walk.emb1"]),
    "csv": ("walk.csv", ["lipschitz", "--embeddings", "walk.csv", "--metric", "l2"]),
    "config": ("exp.cfg", ["--config", "exp.cfg", "report"]),
    "report": ("report.json", ["report", "--rerun", "report.json"]),
    "fasta-walk": ("w.fasta", ["walk", "--fasta", "w.fasta", "--n-mutations", "4"]),
    "fasta-perturb": ("w.fasta", ["perturb", "--input", "w.fasta", "--kind", "substitute",
                                  "--rate", "0.1", "--output", "out.fasta"]),
    "manifest": ("man.csv", ["perturb", "--manifest", "man.csv"]),
}
FIXTURES = {"emb1": EMB1, "csv": CSV, "config": CONFIG, "report": REPORT,
            "fasta-walk": FASTA, "fasta-perturb": FASTA, "manifest": MANIFEST}

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


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mutations=MUTATIONS)
def test_cli_mutated_input_exits_0_2_or_3(fixture, mutations):
    target, argv = TARGETS[fixture]
    with fresh_directory():
        with open("walk.emb1", "wb") as fh:
            fh.write(EMB1)
        with open("w.fasta", "wb") as fh:
            fh.write(FASTA)
        with open(target, "wb") as fh:
            fh.write(mutate(FIXTURES[fixture], mutations))
        assert cli.main(["--out-dir", "run", *argv]) in (0, 2, 3)
