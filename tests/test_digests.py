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
        "run/report.json": "edc73a44a7e907337042c721042929e5c2f6de7c05e55476c3c99c2404796588",
        "run/traj_a.sym.csv": "02cd046dac4d5fe142033213e511966d565b26abb7fc10d2a8e5fdf26e7e46e4",
        "run/traj_b.sym.csv": "4e17a3131c49ad4025d5a91e98e8f7da3b2bf85ddc105a3f222c7a79c51d4845",
    },
    "fetch-synthetic": {
        "run/report.json": "11885a46013a43bf4856fe20fc1f405704870673c482061d3e6f0f3d55473eea",
        "synth.fasta": "427a0b94838e649145160c093da65c2c3d764fb600e870b34606db5c737ed297",
    },
    "gen-lorenz": {
        "run/range.emb1": "2671ddc077be716a86fa02d0b53730eeee5437fcac0095cf668081c50bbf6bd5",
        "run/report.json": "b5132864f8386dcda3813377605e1e8895de1a131a8b408aa5575320d023ac95",
        "run/traj_0000.emb1": "c25c4dc044e0c402b55534e1a47501db52a6a28edf7d114d2076e8e9c11141ac",
        "run/traj_0001.emb1": "966e163298c5ab3913c7d65df56801d67e22ef28686703431a31a51bbb72aeae",
    },
    "gen-oscillator": {
        "run/range.emb1": "a0ca88ec034dae8181fc248f6d0f5fa38e30aef2c52a7c57fd87b47b74c133b4",
        "run/report.json": "d0f005d270900a565bee1e77698b40f5119c0ee2db49cf004dd025671dd0304a",
        "run/traj_0000.emb1": "a5479cb513c6c9e25a90597646924b16fe34eb8c56eeb0f59ef21405eac33bd7",
        "run/traj_0001.emb1": "f906f7e4bfb6d1f8ba02f6f9b60ebfe543ee26132ea0c1b3fe01e5582a2a111d",
    },
    "gen-waveform": {
        "run/range.emb1": "e4597ef5e03ce82b8877efacbd82e7769707648ba6420b4deee045e8bc882f60",
        "run/report.json": "f71017002b9a75cf4da075a19df75e6555ac6ad276617133ce0bc3186b54b70c",
        "run/traj_0000.emb1": "530151a8bfa75ab16640e2e7b312312168da632328cacdedca0a72883d6e8cfc",
        "run/traj_0001.emb1": "f79c63872dba219f73a179eaa6d77bf63ce184e740a0c2df1a93fd69577e8202",
    },
    "lipschitz-cosine": {
        "run/profile.csv": "fa5e4e11dd5c98ee33135679abb71714bc34ef7d79ad26086ff91db23d7b8242",
        "run/report.json": "ffd290cb6ee269f88e87b500a6c59840f0f1574536c3824f99ec24c93296eacc",
        "run/trajectory.svg": "cd666bce361aaca8dd36d4cf149875f7a4017821d4e0d306333fec29b3e0d819",
    },
    "lipschitz-l2": {
        "run/profile.csv": "6e67b19fa01d6061eb9d6c904b0e4664caea1884605d895eabad4d683609688e",
        "run/report.json": "90155b8a28a1df107fb1ad8e4cb086934c5978cc0620835112539103274ffde2",
        "run/trajectory.svg": "cd666bce361aaca8dd36d4cf149875f7a4017821d4e0d306333fec29b3e0d819",
    },
    "mine-1-thread": {
        "run/report.csv": "1f148287e573e0622e50a88f6e272fe63b325bc436c861ac47d05e3ef152269b",
        "run/report.json": "014f44ae6707a9681a26c34a0158812f3b8f57f5167249994c3deac778b337aa",
    },
    "mine-2-threads": {
        "run/report.csv": "1f148287e573e0622e50a88f6e272fe63b325bc436c861ac47d05e3ef152269b",
        "run/report.json": "bcb887f6da0aa08e65e3651dd4ee7a66d160cd09108e3fc70584ffb6bfe91080",
    },
    "mine-sanity": {
        "run/report.csv": "abff22db8156dfa3a706895e768f3eb6828fdf2dff5043f2fd801366ef662146",
        "run/report.json": "d44fdfa0df24b818b01b738f133d9e6c092d8462f57105a28d74721ad437bd06",
    },
    "perturb-file": {
        "noisy.emb1": "874601dc0c57ec10933d08a4f8113765ff63ab46e9ad946a517d141d2ca17b33",
        "run/report.json": "cf566ed006d8a3ee8f489aeb7efd168d0e9486ad4aa54a85a08ea8f65084e4e8",
    },
    "perturb-manifest": {
        "run/report.json": "33738e5f7b7ab429c20b3f0f67492e1dc20caae6994d341a482142065cb094e7",
        "run/seq.substitute.2.fasta":
            "742f34a92605697bf47494e80a6d597d95ab48ebdf1777c363f4b3c6e54a225e",
        "run/traj_a.value_noise.0.emb1":
            "6b619dcb26e19f9c4f08f1fc223bcc5050cac1223811de7263b3eca45c4c2110",
        "run/traj_b.time_reverse.1.emb1":
            "8c9be5145ef2bf9b279026d38ab9d43e034ed91bb73ea620cdfbcce0b2d88df3",
    },
    "probe-linear": {
        "run/report.csv": "f77d0c334bd2f7bb7e2abcd30f0d0628501fe0587843eae4a1709dae0e308257",
        "run/report.json": "b8df0a981751453ebe26a689d884c630888a7640dcf224fa203b6bd0653bbed1",
    },
    "probe-mlp": {
        "run/report.csv": "1567550f51aa1af94e94b27fb26724ad450840e3beca262223adb99d7706b4ef",
        "run/report.json": "5da73314657d22c93730644cb938d60f2b2e507484342ac7766e420b8dabc360",
    },
    "procrustes": {
        "run/report.json": "4222cd5e13c63d7f7f07280714a5b79d2a885062f8df87a762b3e7383495a87b",
        "run/rotation.emb1": "578805b998a1d465c82084f41336acdf3f9117f1ead12351871c2b091b8d50d7",
    },
    "report-rerun": {
        "rerun/report.csv": "8db9afab630a3a6350e0cb7f536d19d24a1840a06d3c45671b8344f5bfaefdef",
        "rerun/report.json": "a7ff4720921ac3f1d04844729e5bc86910e5b8214d4463b73c32774e6666ac76",
        "rerun/report.ndjson": "6e26b2fc824d23c702981baf885f25b0e0e4a47a9dd4e320706c90531e6f9fe0",
        "run/report.csv": "8db9afab630a3a6350e0cb7f536d19d24a1840a06d3c45671b8344f5bfaefdef",
        "run/report.json": "a7ff4720921ac3f1d04844729e5bc86910e5b8214d4463b73c32774e6666ac76",
        "run/report.ndjson": "6e26b2fc824d23c702981baf885f25b0e0e4a47a9dd4e320706c90531e6f9fe0",
    },
    "stability": {
        "run/report.csv": "8db9afab630a3a6350e0cb7f536d19d24a1840a06d3c45671b8344f5bfaefdef",
        "run/report.json": "a7ff4720921ac3f1d04844729e5bc86910e5b8214d4463b73c32774e6666ac76",
        "run/report.ndjson": "6e26b2fc824d23c702981baf885f25b0e0e4a47a9dd4e320706c90531e6f9fe0",
    },
    "texture": {
        "run/report.csv": "72a1aa5a4e41d4c589d30c20c727155c726538897087fec2cc8b0ac3430fb952",
        "run/report.json": "373fd1192c243960977434fcc31be6b12830a145ea2437a2810f68e9d339da16",
    },
    "vq-sweep": {
        "run/report.csv": "f37a28b69eade3dc9be8fb3d9be9bba4f19fbf7ee0ca0bcc0da4ff7215431fd8",
        "run/report.json": "5a6717646b1d3ab1656d52cf3769089303d65b1872b85fcb927eafad40270a9a",
    },
    "walk-interpolation": {
        "run/report.json": "62af949a687a1fabdfabe5c7390fe8acf2c32355bea365ec876ec49e4852c6e0",
        "run/walk.emb1": "8f0663fc19dd7f7e363a38af7be737216591b4403c0bc50234ab0c2c6a56985f",
        "run/walk_steps.csv": "7e94fcd88e5411d5f98b34695d2ceb6f36c851a7967baa593d5b0c203266a41c",
    },
    "walk-mutation": {
        "run/report.json": "e80934e14dcfe7fd90a864e01e3471af5b0c6a49863b27a6b8ac07719519cb0f",
        "run/walk.fasta": "826cfbf03a355fecca96e8527c7916047c58e0fa272daa4d2f8e5fbc1a1c9a4b",
    },
    "walk-profiles": {
        "run/histogram_path.svg":
            "469bdb37aad9e9c7892dbd590ae1084e30438745629eea4e58c6c92a3c035055",
        "run/report.csv": "adf59dd6ad451dbad8131c81df3ab0de757d86e4e9de2aece43223f2a12dad84",
        "run/report.json": "8a54f20035fb04794552e91e77951bae2be62ba336ab04edddeb2f679c0bdd31",
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
