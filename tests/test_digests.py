"""Report digests: the SHA-256 of every file that one tiny run of each
pipeline subcommand writes, ``report.json`` included.

A change that claims byte-identical reports moves no digest here; one
that moves a digest says which and why.  The inputs are drawn from fixed
Philox streams, so no data file is committed, and every path is relative
to the run's directory, so the config echo is the same on any machine.
The digests hold for the toolchain in ``TOOLCHAIN``: another numpy or
OpenBLAS may round a BLAS sum differently."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from geotax.cli import main
from geotax.core.embedding import EmbeddingMatrix
from geotax.core.io import write_embeddings
from geotax.core.rng import SeedSpec, rng_create
from geotax.ingest.fasta import FastaRecord, write_fasta

TOOLCHAIN = {"numpy": "2.4.6", "scipy-openblas": "0.3.31.188.0"}


def toolchain() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, blas["name"]: blas["version"]}


def write_inputs(root: Path) -> None:
    rng = rng_create(SeedSpec(27, "digest-inputs"))
    labels = np.repeat(np.arange(3), 20)
    clean = rng.standard_normal((60, 8)) + labels[:, None]
    write_embeddings(root / "clean.emb1", EmbeddingMatrix(clean, labels))
    for name in ("pert_a", "pert_b"):
        noisy = clean + 0.1 * rng.standard_normal(clean.shape)
        write_embeddings(root / f"{name}.emb1", EmbeddingMatrix(noisy, labels))
    np.savetxt(root / "deltas.csv", rng.random(60), delimiter=",")
    np.savetxt(root / "labels.csv", labels % 2, fmt="%d")
    for name in ("traj_a", "traj_b"):
        steps = np.cumsum(rng.standard_normal((40, 3)), axis=0)
        write_embeddings(root / f"{name}.emb1", EmbeddingMatrix(steps))
    # wider than the 50 PCA components of mine
    x = rng.standard_normal((64, 2))
    write_embeddings(root / "x.emb1", EmbeddingMatrix(x))
    z = np.hstack([x, rng.standard_normal((64, 58))])
    write_embeddings(root / "z.emb1", EmbeddingMatrix(z))
    bases = rng.integers(0, 4, size=(2, 100))
    write_fasta([FastaRecord(f"s{i}", "".join("ACGT"[b] for b in row))
                 for i, row in enumerate(bases)], root / "seq.fasta")
    (root / "manifest.csv").write_text(
        "traj_a.emb1,value_noise,0.2,1\ntraj_b.emb1,time_reverse,0,2\n"
        "seq.fasta,substitute,0.05,3\n")


STABILITY = ["--out-dir", "run", "stability", "--clean", "clean.emb1", "--pert", "a=pert_a.emb1",
             "--pert", "b=pert_b.emb1", "--deltas", "deltas.csv", "--splits", "2",
             "--bootstrap", "2"]
MINE = ["mine", "--features", "x.emb1", "--embeddings", "z.emb1", "--seeds", "1,2",
        "--epochs", "12", "--condition", "wide"]

# each case: the argument lists of its runs, in order
CASES = {
    "gen-lorenz": [["--out-dir", "run", "gen", "--system", "lorenz", "--n", "2", "--length",
                    "16"]],
    "gen-oscillator": [["--out-dir", "run", "gen", "--system", "oscillator", "--n", "2",
                        "--length", "16"]],
    "gen-waveform": [["--out-dir", "run", "gen", "--system", "waveform", "--n", "2", "--length",
                      "16", "--components", "2"]],
    "discretize": [["--out-dir", "run", "discretize", "--input", "traj_a.emb1", "traj_b.emb1",
                    "--bins", "8"]],
    "perturb-file": [["--seed", "5", "--out-dir", "run", "perturb", "--input", "traj_a.emb1",
                      "--kind", "value_noise", "--rate", "0.3", "--output", "noisy.emb1"]],
    "perturb-manifest": [["--out-dir", "run", "perturb", "--manifest", "manifest.csv",
                          "--magnitude", "0.5"]],
    "stability": [STABILITY],
    "report-rerun": [STABILITY, ["--out-dir", "rerun", "report", "--rerun", "run/report.json"]],
    "procrustes": [["--out-dir", "run", "procrustes", "--clean", "clean.emb1", "--pert",
                    "pert_a.emb1", "--export-rotation"]],
    "walk-mutation": [["--out-dir", "run", "walk", "--length", "200", "--n-mutations", "4"]],
    "walk-interpolation": [["--out-dir", "run", "walk", "--mode", "interpolation", "--steps",
                            "4"]],
    "walk-profiles": [["--out-dir", "run", "walk-profiles"]],
    "fetch-synthetic": [["--seed", "9", "--out-dir", "run", "fetch", "--source", "synthetic",
                         "--end", "200", "--output", "synth.fasta"]],
    "lipschitz-cosine": [["--out-dir", "run", "lipschitz", "--embeddings", "traj_a.emb1"]],
    "lipschitz-l2": [["--out-dir", "run", "lipschitz", "--embeddings", "traj_a.emb1",
                      "--metric", "l2"]],
    "mine-1-thread": [["--out-dir", "run", *MINE]],
    "mine-2-threads": [["--threads", "2", "--out-dir", "run", *MINE]],
    "mine-sanity": [["--out-dir", "run", "mine-sanity", "--n", "24", "--seeds", "1"]],
    "texture": [["--out-dir", "run", "texture", "--n", "8", "--length", "24", "--splits", "2"]],
    "probe-linear": [["--out-dir", "run", "probe", "--embeddings", "clean.emb1", "--labels",
                      "labels.csv", "--folds", "2"]],
    "probe-mlp": [["--out-dir", "run", "probe", "--embeddings", "clean.emb1", "--labels",
                   "labels.csv", "--arch", "mlp", "--folds", "2"]],
    "vq-sweep": [["--out-dir", "run", "vq-sweep", "--k-values", "4,8,16"]],
}

DIGESTS = {
    "discretize": {
        "run/report.json": "8a190905b44ae23896ab56763184f6b9ae5223b72aa50ea389a65c36724908f3",
        "run/traj_a.sym.csv": "02cd046dac4d5fe142033213e511966d565b26abb7fc10d2a8e5fdf26e7e46e4",
        "run/traj_b.sym.csv": "4e17a3131c49ad4025d5a91e98e8f7da3b2bf85ddc105a3f222c7a79c51d4845",
    },
    "fetch-synthetic": {
        "run/report.json": "e6982ae81f84d596b438fa65e127f774d0d26eaa0e30f64e7274a847da08f74e",
        "synth.fasta": "427a0b94838e649145160c093da65c2c3d764fb600e870b34606db5c737ed297",
    },
    "gen-lorenz": {
        "run/range.emb1": "2671ddc077be716a86fa02d0b53730eeee5437fcac0095cf668081c50bbf6bd5",
        "run/report.json": "54ab580db1f17b53fcb7bfc3e896885871c5089301940cbd58da47b0c6e6fb65",
        "run/traj_0000.emb1": "c25c4dc044e0c402b55534e1a47501db52a6a28edf7d114d2076e8e9c11141ac",
        "run/traj_0001.emb1": "966e163298c5ab3913c7d65df56801d67e22ef28686703431a31a51bbb72aeae",
    },
    "gen-oscillator": {
        "run/range.emb1": "a0ca88ec034dae8181fc248f6d0f5fa38e30aef2c52a7c57fd87b47b74c133b4",
        "run/report.json": "7a5e1e1bff98760cde91c66a0c8337877e601e81e4845924fb883761592209e7",
        "run/traj_0000.emb1": "a5479cb513c6c9e25a90597646924b16fe34eb8c56eeb0f59ef21405eac33bd7",
        "run/traj_0001.emb1": "f906f7e4bfb6d1f8ba02f6f9b60ebfe543ee26132ea0c1b3fe01e5582a2a111d",
    },
    "gen-waveform": {
        "run/range.emb1": "e4597ef5e03ce82b8877efacbd82e7769707648ba6420b4deee045e8bc882f60",
        "run/report.json": "ebdf5e4ca6de3005baa674744338d370c7f9c125babde36c21cd27122bb3cc27",
        "run/traj_0000.emb1": "530151a8bfa75ab16640e2e7b312312168da632328cacdedca0a72883d6e8cfc",
        "run/traj_0001.emb1": "f79c63872dba219f73a179eaa6d77bf63ce184e740a0c2df1a93fd69577e8202",
    },
    "lipschitz-cosine": {
        "run/profile.csv": "fa5e4e11dd5c98ee33135679abb71714bc34ef7d79ad26086ff91db23d7b8242",
        "run/report.json": "838159507e786556344078624ebe3d2bc9072c18803b196993750ad72de0f0b8",
        "run/trajectory.svg": "cd666bce361aaca8dd36d4cf149875f7a4017821d4e0d306333fec29b3e0d819",
    },
    "lipschitz-l2": {
        "run/profile.csv": "6e67b19fa01d6061eb9d6c904b0e4664caea1884605d895eabad4d683609688e",
        "run/report.json": "6086c206284cd58834fba2ad470ccfb81a3d22cb698cc8729641b4098d372488",
        "run/trajectory.svg": "cd666bce361aaca8dd36d4cf149875f7a4017821d4e0d306333fec29b3e0d819",
    },
    "mine-1-thread": {
        "run/report.csv": "1f148287e573e0622e50a88f6e272fe63b325bc436c861ac47d05e3ef152269b",
        "run/report.json": "bbf652b731fa1565c36bf2b871f535751a453eb33d0da77fb63e135e628ac14b",
    },
    "mine-2-threads": {
        "run/report.csv": "1f148287e573e0622e50a88f6e272fe63b325bc436c861ac47d05e3ef152269b",
        "run/report.json": "d2086ba6164adaa553a9737d66baaa78dee1b737945e09765f483b862fee1390",
    },
    "mine-sanity": {
        "run/report.csv": "abff22db8156dfa3a706895e768f3eb6828fdf2dff5043f2fd801366ef662146",
        "run/report.json": "8a1a3f24845ea4ac7f278f43f2b3ad194394ed07cc2919e85c6502521578c85f",
    },
    "perturb-file": {
        "noisy.emb1": "874601dc0c57ec10933d08a4f8113765ff63ab46e9ad946a517d141d2ca17b33",
        "run/report.json": "7023f5c8ca27fadc7fd7bd5b080ec100abb53d6bb6211320d125b04264031e48",
    },
    "perturb-manifest": {
        "run/report.json": "fb0036d79ee6e030e4391c9d6bcacc2716c4024b7cd7dd75cb9cafcdc5c5fb7f",
        "run/seq.substitute.2.fasta":
            "742f34a92605697bf47494e80a6d597d95ab48ebdf1777c363f4b3c6e54a225e",
        "run/traj_a.value_noise.0.emb1":
            "6b619dcb26e19f9c4f08f1fc223bcc5050cac1223811de7263b3eca45c4c2110",
        "run/traj_b.time_reverse.1.emb1":
            "8c9be5145ef2bf9b279026d38ab9d43e034ed91bb73ea620cdfbcce0b2d88df3",
    },
    "probe-linear": {
        "run/report.csv": "f77d0c334bd2f7bb7e2abcd30f0d0628501fe0587843eae4a1709dae0e308257",
        "run/report.json": "17470d8f9c93e1368cdba606ea9f5e0159619049fd16b27d3a7a875d3dc02323",
    },
    "probe-mlp": {
        "run/report.csv": "1567550f51aa1af94e94b27fb26724ad450840e3beca262223adb99d7706b4ef",
        "run/report.json": "f3046c5fc0e04b58fff44ad4d9c7c5e59e53130096e65897dd2dac5d96c96763",
    },
    "procrustes": {
        "run/report.json": "250b1ac918065ad08243552fab7010cd46a1dc9f96b90ae9d6ab19a6e2ccbb44",
        "run/rotation.emb1": "578805b998a1d465c82084f41336acdf3f9117f1ead12351871c2b091b8d50d7",
    },
    "report-rerun": {
        "rerun/report.csv": "8db9afab630a3a6350e0cb7f536d19d24a1840a06d3c45671b8344f5bfaefdef",
        "rerun/report.json": "e7420ea95c1832f17a6e4a66448fca1726af01a64383a66ef1c5016414badc9f",
        "rerun/report.ndjson": "6e26b2fc824d23c702981baf885f25b0e0e4a47a9dd4e320706c90531e6f9fe0",
        "run/report.csv": "8db9afab630a3a6350e0cb7f536d19d24a1840a06d3c45671b8344f5bfaefdef",
        "run/report.json": "e7420ea95c1832f17a6e4a66448fca1726af01a64383a66ef1c5016414badc9f",
        "run/report.ndjson": "6e26b2fc824d23c702981baf885f25b0e0e4a47a9dd4e320706c90531e6f9fe0",
    },
    "stability": {
        "run/report.csv": "8db9afab630a3a6350e0cb7f536d19d24a1840a06d3c45671b8344f5bfaefdef",
        "run/report.json": "e7420ea95c1832f17a6e4a66448fca1726af01a64383a66ef1c5016414badc9f",
        "run/report.ndjson": "6e26b2fc824d23c702981baf885f25b0e0e4a47a9dd4e320706c90531e6f9fe0",
    },
    "texture": {
        "run/report.csv": "72a1aa5a4e41d4c589d30c20c727155c726538897087fec2cc8b0ac3430fb952",
        "run/report.json": "9358fbb566cc97d0e695f8df03186bd293e9e5ede17f227edb928377bc3e267a",
    },
    "vq-sweep": {
        "run/report.csv": "f37a28b69eade3dc9be8fb3d9be9bba4f19fbf7ee0ca0bcc0da4ff7215431fd8",
        "run/report.json": "f252655621e1558cf2f45dd9aa587b19063661797fdb620322a30e8a1e379f90",
    },
    "walk-interpolation": {
        "run/report.json": "6a3d9647fe8660f1ee052422f7aa71abfa111fd7513d42060c287583bc455ad1",
        "run/walk.emb1": "8f0663fc19dd7f7e363a38af7be737216591b4403c0bc50234ab0c2c6a56985f",
        "run/walk_steps.csv": "7e94fcd88e5411d5f98b34695d2ceb6f36c851a7967baa593d5b0c203266a41c",
    },
    "walk-mutation": {
        "run/report.json": "9327a8677180ee4ee1197bb2a071ffc3bbf1245dbef4800e9d64958024f12565",
        "run/walk.fasta": "826cfbf03a355fecca96e8527c7916047c58e0fa272daa4d2f8e5fbc1a1c9a4b",
    },
    "walk-profiles": {
        "run/histogram_path.svg":
            "469bdb37aad9e9c7892dbd590ae1084e30438745629eea4e58c6c92a3c035055",
        "run/report.csv": "adf59dd6ad451dbad8131c81df3ab0de757d86e4e9de2aece43223f2a12dad84",
        "run/report.json": "5218763b3b45f8cd0e7f70709834a22256d256596931148496208289e4b99780",
        "run/smooth_path.svg": "1061c6d3dd0cbe933091c5077eabe41b029f982566f72ba99369771cb2eceffd",
    },
}


def digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(case: str, root: Path) -> dict:
    """The digest of every file the case's runs write under ``root``."""
    write_inputs(root)
    inputs = digests(root)
    for argv in CASES[case]:
        assert main(argv) == 0, argv
    return {name: digest for name, digest in digests(root).items() if name not in inputs}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_written_file_has_its_recorded_digest(case, tmp_path):
    assert run_case(case, tmp_path) == DIGESTS[case], (
        f"digests recorded with {TOOLCHAIN}, run with {toolchain()}")
