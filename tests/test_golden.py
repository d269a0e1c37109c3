"""Byte-identity of what the commands write, against recorded digests.

`golden_digests` trains on four copies of the tiny fixture corpus with the
fixture embeddings, in every encoder mode, each plain and with one of six
switches. It hashes every checkpoint, `evaluate` and `predict` output on
each checkpoint, `gradcheck --seed 0`, and `ablate` with `test_cli`'s small
config on the fixture corpus and on its four copies trained 10 epochs (the
former reads f1_i = 0.00 in every row, the latter does not). Those three
short sentences do not reach the benchmark's GEMM shapes, so the record
also holds the four lines `tests/snapshot_digests.py --seeds 1` prints: the
final and best snapshot of one `train` on each `perfbench` workload's
seed-1 inputs. A refactor that claims to keep outputs byte-identical must
pass this test unchanged.

Checkpoint bytes follow the float summation order of NumPy and its BLAS, and
an OpenBLAS built for several CPUs picks its kernels by CPU. So the test
skips, naming the mismatch, unless the NumPy version, the BLAS build and
NumPy's CPU features are the recorded ones.

After a change meant to alter outputs, re-record both with
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from dregcn_absa import cli
from dregcn_absa.encoder import MODES
from test_cli import SMALL_CONFIG

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SNAPSHOTS = pathlib.Path(__file__).parent / "snapshot_digests.py"
RECORD = FIXTURES / "golden_digests.json"

CONFIG = """\
d = 8
m = 4
d_t = 4
general_dim = 4
domain_dim = 3
gcn_layers = 1
cnn_layers = 1
epochs = 2
runs = 2
batch_size = 4
learning_rate = 0.01
"""

# each mode runs plain and with each of these settings added
VARIANTS = {
    "plain": "",
    "normalize_adjacency": "normalize_adjacency = true\n",
    "distinct_reverse_types": "distinct_reverse_types = true\n",
    "mp_predictions": "mp_variant = predictions\n",
    "freeze_embeddings": "freeze_embeddings = true\n",
    "no_opinion_passing": "opinion_passing = false\n",
    "pass_pre_attention_as": "pass_pre_attention_as = true\n",
}


def environment():
    """What checkpoint bytes depend on besides the code, in comparison order."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k)) for k in ("name", "version", "openblas configuration")),
    }
    if env["numpy"].startswith("2."):
        from numpy._core._multiarray_umath import __cpu_features__

        env["cpu_features"] = " ".join(sorted(k for k, on in __cpu_features__.items() if on))
    return env


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv):
    """stdout of one `cli.main` call, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def golden_digests(root: pathlib.Path) -> dict:
    """The sha256 of every output, keyed by mode, variant and file."""
    corpus = root / "train.corpus"
    corpus.write_text("\n".join([(FIXTURES / "tiny.corpus").read_text()] * 4))
    embeddings = [
        "--general-emb", str(FIXTURES / "tiny_general.emb"),
        "--domain-emb", str(FIXTURES / "tiny_domain.emb"),
    ]
    digests = {}
    for mode in MODES:
        for variant, setting in VARIANTS.items():
            key = f"{mode}/{variant}"
            conf, out = root / f"{mode}-{variant}.conf", root / key
            conf.write_text(CONFIG + f"mode = {mode}\n" + setting)
            _main(["train", "--corpus", str(corpus), "--config", str(conf), "--out", str(out), *embeddings])
            for ckpt in sorted(out.glob("checkpoint_seed*.npz")):
                digests[f"{key}/{ckpt.name}"] = _sha(ckpt.read_bytes())
                for command in ("evaluate", "predict"):
                    written = out / f"{ckpt.stem}.{command}"
                    _main([command, "--checkpoint", str(ckpt), "--corpus", str(corpus), "--out", str(written)])
                    digests[f"{key}/{ckpt.stem}.{command}"] = _sha(written.read_bytes())
    digests["gradcheck --seed 0"] = _sha(_main(["gradcheck", "--seed", "0"]).encode())
    small, longer = root / "small.conf", root / "small-10-epochs.conf"
    small.write_text(SMALL_CONFIG)
    longer.write_text(SMALL_CONFIG.replace("epochs = 1", "epochs = 10"))
    for name, path, conf in (
        ("tiny.corpus", FIXTURES / "tiny.corpus", small),
        ("4 x tiny.corpus, 10 epochs", corpus, longer),
    ):
        digests[f"ablate {name}"] = _sha(_main(["ablate", "--corpus", str(path), "--config", str(conf)]).encode())
    return digests


def benchmark_snapshot_digests() -> list:
    """The lines `snapshot_digests.py --seeds 1` prints. It runs in its own
    process because it pins BLAS to one thread before NumPy loads, as the
    benchmark does."""
    run = subprocess.run(
        [sys.executable, str(SNAPSHOTS), "--seeds", "1"],
        cwd=SNAPSHOTS.parent.parent, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def recorded_here() -> dict:
    """The record, or a skip naming the first way this environment differs."""
    recorded = json.loads(RECORD.read_text())
    here = environment()
    for key, value in recorded["environment"].items():
        if here.get(key) != value:
            pytest.skip(f"outputs were recorded under {key} {value!r}, this is {here.get(key)!r}")
    return recorded


def test_outputs_match_recorded_digests(tmp_path):
    recorded = recorded_here()
    digests = golden_digests(tmp_path)
    changed = sorted(k for k in recorded["digests"] if digests.get(k) != recorded["digests"][k])
    assert set(digests) == set(recorded["digests"])
    assert not changed, f"{len(changed)} outputs differ, first {changed[:5]}"


def test_benchmark_shape_snapshots_match_recorded_digests():
    recorded = recorded_here()
    assert benchmark_snapshot_digests() == recorded["benchmark_snapshots"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": golden_digests(pathlib.Path(tmp))}
    record["benchmark_snapshots"] = benchmark_snapshot_digests()
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests and {len(record['benchmark_snapshots'])} "
          f"snapshot lines to {RECORD}")
