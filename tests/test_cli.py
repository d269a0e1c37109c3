import gc
import json
import pathlib
import shutil

import numpy as np
import pytest

from dregcn_absa import autodiff as ad
from dregcn_absa import cli
from dregcn_absa.corpus import parse_corpus_file

SMALL_CONFIG = """\
# small settings for fast command tests
d = 8
m = 4
d_t = 4
general_dim = 6
domain_dim = 3
gcn_layers = 1
cnn_layers = 1
epochs = 1
runs = 1
batch_size = 4
learning_rate = 0.01
"""


@pytest.fixture
def workspace(tmp_path, fixtures_dir):
    corpus = tmp_path / "train.corpus"
    text = (fixtures_dir / "tiny.corpus").read_text()
    corpus.write_text("\n".join([text] * 4))  # 12 sentences for splitting
    config = tmp_path / "small.conf"
    config.write_text(SMALL_CONFIG)
    return tmp_path, str(corpus), str(config)


def run_train(tmp_path, corpus, config, extra=()):
    out = tmp_path / "run"
    code = cli.main(
        ["train", "--corpus", corpus, "--config", config, "--out", str(out), *extra]
    )
    return code, out


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(tmp_path, workspace):
    _, corpus, _ = workspace
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train"]) == 1  # --corpus is required
    assert cli.main(["train", "--corpus", str(tmp_path / "missing.corpus")]) == 1
    bad_conf = tmp_path / "bad.conf"
    bad_conf.write_text("not_a_key = 1\n")
    assert cli.main(["train", "--corpus", corpus, "--config", str(bad_conf)]) == 1
    no_eq = tmp_path / "noeq.conf"
    no_eq.write_text("epochs 3\n")
    assert cli.main(["train", "--corpus", corpus, "--config", str(no_eq)]) == 1


def test_data_errors_exit_2(tmp_path, workspace):
    _, _, config = workspace
    malformed = tmp_path / "broken.corpus"
    malformed.write_text("word O none\n")  # 3 columns instead of 5
    assert cli.main(["train", "--corpus", str(malformed), "--config", config]) == 2
    cyclic = tmp_path / "cyclic.corpus"
    cyclic.write_text("a O none 1 x\nb O none 0 y\nc O none ROOT root\n")
    assert cli.main(["stats", "--corpus", str(cyclic)]) == 2
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"nope")
    assert cli.main(["evaluate", "--checkpoint", str(garbage), "--corpus", str(malformed)]) == 2


def test_non_finite_checkpoint_exits_2(workspace, capsys):
    tmp_path, corpus, config = workspace
    _, out = run_train(tmp_path, corpus, config)
    ckpt = out / "checkpoint_seed0.npz"
    with np.load(ckpt) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["param:ae/hidden_b"][0] = np.nan
    bad = tmp_path / "nan.npz"
    with open(bad, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert cli.main(["evaluate", "--checkpoint", str(bad), "--corpus", corpus]) == 2
    out = capsys.readouterr()
    assert "'ae/hidden_b' has non-finite values" in out.err
    assert "f1_a" not in out.out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_diverged_training_exits_4(workspace, capsys):
    tmp_path, corpus, _ = workspace
    conf = tmp_path / "diverge.conf"
    conf.write_text(SMALL_CONFIG.replace("learning_rate = 0.01", "learning_rate = 1e200"))
    code, _ = run_train(tmp_path, corpus, str(conf))
    assert code == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("training diverged: non-finite gradient for parameter '")


# ---------------------------------------------------------------------------
# config handling


def test_flag_overrides_file_overrides_default(workspace):
    tmp_path, corpus, config = workspace
    code, out = run_train(tmp_path, corpus, config, extra=["--epochs", "2", "--seed", "3"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2  # flag beats the file's 1
    assert manifest["config"]["d"] == 8  # file beats the default 32
    assert manifest["config"]["dropout"] == 0.5  # untouched default
    assert manifest["seeds"] == [3]


def test_config_dir_env_fallback(workspace, monkeypatch, tmp_path):
    _, corpus, config = workspace
    cfg_dir = tmp_path / "confdir"
    cfg_dir.mkdir()
    shutil.copy(config, cfg_dir / "shared.conf")
    monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(cfg_dir))
    code, out = run_train(tmp_path, corpus, "shared.conf")
    assert code == 0
    monkeypatch.delenv(cli.CONFIG_DIR_ENV)
    assert cli.main(["train", "--corpus", corpus, "--config", "shared.conf"]) == 1


# ---------------------------------------------------------------------------
# train / evaluate / predict / stats round trip


def test_train_writes_checkpoints_and_manifest(workspace, capsys):
    tmp_path, corpus, config = workspace
    code, out = run_train(tmp_path, corpus, config)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (out / "checkpoint_seed0.npz").exists()
    assert manifest["digests"]["corpus"]
    assert manifest["digests"]["general_emb"].startswith("random(")
    assert len(manifest["per_run"]) == 1
    assert 0.0 <= manifest["averaged"]["f1_i"] <= 1.0
    assert manifest["wall_clock_seconds"] > 0
    assert "f1_i = " in capsys.readouterr().out


def test_train_with_embedding_files(workspace, fixtures_dir, monkeypatch):
    tmp_path, corpus, config = workspace
    conf = tmp_path / "emb.conf"
    conf.write_text(SMALL_CONFIG.replace("general_dim = 6", "general_dim = 4"))
    code, out = run_train(
        tmp_path, corpus, str(conf),
        extra=[
            "--general-emb", str(fixtures_dir / "tiny_general.emb"),
            "--domain-emb", str(fixtures_dir / "tiny_domain.emb"),
        ],
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["digests"]["general_emb"]) == 64  # sha256 hex


def test_non_finite_embedding_exits_2(workspace, fixtures_dir, tmp_path, capsys):
    _, corpus, config = workspace
    conf = tmp_path / "emb.conf"
    conf.write_text(SMALL_CONFIG.replace("general_dim = 6", "general_dim = 4"))
    emb = tmp_path / "nan.emb"
    emb.write_text((fixtures_dir / "tiny_general.emb").read_text().replace("0.00", "nan", 1))
    code = cli.main(["train", "--corpus", corpus, "--config", str(conf), "--general-emb", str(emb)])
    assert code == 2
    assert "line 2: non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
def test_commands_close_their_files(workspace, fixtures_dir):
    tmp_path, corpus, config = workspace
    conf = tmp_path / "emb.conf"
    conf.write_text(SMALL_CONFIG.replace("general_dim = 6", "general_dim = 4"))
    code, _ = run_train(
        tmp_path, corpus, str(conf),
        extra=[
            "--general-emb", str(fixtures_dir / "tiny_general.emb"),
            "--domain-emb", str(fixtures_dir / "tiny_domain.emb"),
        ],
    )
    assert code == 0
    assert cli.main(["stats", "--corpus", corpus]) == 0
    gc.collect()  # an unclosed handle warns when it is collected


def test_evaluate_predict_stats(workspace, capsys):
    tmp_path, corpus, config = workspace
    _, out = run_train(tmp_path, corpus, config)
    ckpt = str(out / "checkpoint_seed0.npz")
    capsys.readouterr()

    assert cli.main(["evaluate", "--checkpoint", ckpt, "--corpus", corpus]) == 0
    text = capsys.readouterr().out
    for key in ("f1_a", "f1_o", "acc_s", "f1_s", "f1_i"):
        assert f"{key} = " in text

    pred_path = tmp_path / "pred.corpus"
    assert cli.main(
        ["predict", "--checkpoint", ckpt, "--corpus", corpus, "--out", str(pred_path)]
    ) == 0
    predicted = parse_corpus_file(pred_path.read_text())
    original = parse_corpus_file(pathlib.Path(corpus).read_text())
    assert len(predicted) == len(original)
    assert all(p.tokens == o.tokens for p, o in zip(predicted, original))

    assert cli.main(["stats", "--corpus", corpus]) == 0
    stats_text = capsys.readouterr().out
    assert "sentences = 12" in stats_text
    assert "aspect_terms = 16" in stats_text
    assert "opinion_terms = 16" in stats_text


def test_train_determinism_same_seed(workspace):
    tmp_path, corpus, config = workspace
    _, out_a = run_train(tmp_path, corpus, config)
    out_b = tmp_path / "run_b"
    cli.main(["train", "--corpus", corpus, "--config", config, "--out", str(out_b)])
    a = (out_a / "checkpoint_seed0.npz").read_bytes()
    b = (out_b / "checkpoint_seed0.npz").read_bytes()
    assert a == b


def test_ablate_emits_six_labeled_rows(workspace, capsys):
    tmp_path, corpus, config = workspace
    assert cli.main(["ablate", "--corpus", corpus, "--config", config]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6
    labels = [l.split()[1] for l in lines]
    assert labels == [label for label, _ in cli.ABLATION_ROWS]
    assert labels[0] == "cnn" and labels[2] == "dregcn"
    assert all("f1_i = " in l for l in lines)


# ---------------------------------------------------------------------------
# gradcheck command


def test_gradcheck_passes_and_lists_every_check(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 8  # one line per checked operation
    assert all(l.startswith("ok ") for l in lines)
    assert any("full_model_T2" in l for l in lines)


def test_gradcheck_detects_corrupted_backward_rule(monkeypatch, capsys):
    original = ad.Tape.record

    def corrupted(self, output, inputs, backward):
        # fault injection: every pullback sees a slightly scaled gradient
        original(self, output, inputs, lambda g: backward(g * 1.01))

    monkeypatch.setattr(ad.Tape, "record", corrupted)
    assert cli.main(["gradcheck"]) == 3
    out = capsys.readouterr()
    assert "FAIL" in out.out
    assert "verification failure" in out.err
