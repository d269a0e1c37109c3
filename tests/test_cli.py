import dataclasses
import gc
import hashlib
import json
import pathlib
import platform
import shutil
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dregcn_absa
from dregcn_absa import autodiff as ad
from dregcn_absa import cli
from dregcn_absa.corpus import parse_corpus_file, random_embedding_table
from dregcn_absa.encoder import MODES, EncoderConfig
from dregcn_absa.evaluation import METRICS
from dregcn_absa.heads import MAX_ROUNDS, MP_VARIANTS, MessagePassingConfig
from dregcn_absa.model import ModelConfig, load_checkpoint
from dregcn_absa.training import TrainConfig
from test_properties import corpus_texts, embedding_texts

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


def make_workspace(root):
    """root, a 12-sentence corpus (enough to split) and SMALL_CONFIG in it."""
    corpus = root / "train.corpus"
    text = (pathlib.Path(__file__).parent / "fixtures" / "tiny.corpus").read_text()
    corpus.write_text("\n".join([text] * 4))
    config = root / "small.conf"
    config.write_text(SMALL_CONFIG)
    return root, str(corpus), str(config)


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def run_train(tmp_path, corpus, config, extra=()):
    out = tmp_path / "run"
    code = cli.main(
        ["train", "--corpus", corpus, "--config", config, "--out", str(out), *extra]
    )
    return code, out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A workspace and the checkpoint that one `train` wrote there, shared
    by the tests that only read or copy it."""
    root, corpus, config = make_workspace(tmp_path_factory.mktemp("trained"))
    code, out = run_train(root, corpus, config)
    assert code == 0
    return root, corpus, out / "checkpoint_seed0.npz"


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(tmp_path, workspace, trained, capsys, monkeypatch):
    _, corpus, config = workspace
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train"]) == 1  # --corpus is required
    assert cli.main(["train", "--corpus", str(tmp_path / "missing.corpus")]) == 1
    bad_conf = tmp_path / "bad.conf"
    bad_conf.write_text("not_a_key = 1\n")
    assert cli.main(["train", "--corpus", corpus, "--config", str(bad_conf)]) == 1
    no_eq = tmp_path / "noeq.conf"
    no_eq.write_text("epochs 3\n")
    assert cli.main(["train", "--corpus", corpus, "--config", str(no_eq)]) == 1
    for setting in (
        "learning_rate = nan",
        "learning_rate = inf",
        "dropout = 1.5",
        "dropout = -0.5",
        "dropout = 1.0",
        "d = 0",
        "d_t = 0",
        "m = -1",
        "gcn_layers = -1",
        "epochs = 2.7",
        "epochs = 2.0",
        "epochs = inf",
        "dev_ratio = 0",
        "seed = -1",
        "general_dim = -1",
        "general_dim = 0\ndomain_dim = 0",
        "normalize_adjacency = no",
        "normalize_adjacency = 1",
        "opinion_passing = 1",
        "freeze_embeddings = no",
        "pass_pre_attention_as = 1",
        "distinct_reverse_types = no",
        "rounds = 1.5",
        "rounds = 11",
        "batch_size = 0",
        "runs = 0",
        "cnn_layers = 2.5",
        "domain_dim = 1.5",
        "general_dim = 6.0",
        "learning_rate = abc",
        "mode = bogus",
        "mp_variant = bogus",
        "learning_rate = true",
        "dropout = false",
        "d = 1000000000000000",  # too large to allocate
        "d = 10000000000000000000",
        "general_dim = 1000000000000000",
    ):
        bad_value = tmp_path / "bad_value.conf"
        bad_value.write_text(SMALL_CONFIG + setting + "\n")
        capsys.readouterr()
        code, out = run_train(tmp_path, corpus, str(bad_value))
        assert code == 1, setting
        assert not out.exists(), setting
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err, setting
        if "000000000000000" in setting:  # a size too large names itself
            assert setting.split(" = ")[1] in err, setting
    # gradcheck reads its seed through the same validation
    for setting in ("seed = abc", "seed = 2.5"):
        bad_value.write_text(setting + "\n")
        capsys.readouterr()
        assert cli.main(["gradcheck", "--config", str(bad_value)]) == 1, setting
        assert capsys.readouterr().err.startswith("usage error: seed must be"), setting
    capsys.readouterr()
    assert cli.main(["gradcheck", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    code, out = run_train(tmp_path, corpus, config, extra=["--rounds", "11"])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == "usage error: rounds must lie in [0, 10], got 11\n"
    # a config file that is not UTF-8 names the line of its first bad byte
    latin = tmp_path / "latin1.conf"
    latin.write_bytes(b"epochs = 1\nmode = caf\xe9\n")
    code, out = run_train(tmp_path, corpus, str(latin))
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"usage error: {latin}: line 2: byte 0xe9 is not UTF-8\n"
    # a directory where a file is read, directly or through the config
    # directory, and an existing file as `--out`: each is named, and nothing
    # is trained or written
    folder = tmp_path / "somedir"
    folder.mkdir()
    cfg_dir = tmp_path / "confdir"
    (cfg_dir / "shared.conf").mkdir(parents=True)
    monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(cfg_dir))
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for argv, named in (
        (["--config", str(folder)], f"config file is a directory: {folder}"),
        (["--config", "shared.conf"], f"config file is a directory: {cfg_dir / 'shared.conf'}"),
        (["--corpus", str(folder)], f"corpus file is a directory: {folder}"),
        (["--general-emb", str(folder)], f"embedding file is a directory: {folder}"),
    ):
        capsys.readouterr()
        out = tmp_path / "dir_run"
        code = cli.main(["train", "--corpus", corpus, "--out", str(out), *argv])
        assert code == 1, argv
        assert not out.exists(), argv
        assert capsys.readouterr().err == f"usage error: {named}\n", argv
    code = cli.main(["train", "--corpus", corpus, "--config", config, "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: --out {taken} exists and is not a directory\n"
    assert taken.read_text() == "keep me\n"
    # an `--out` under an existing file cannot be made: named before training
    under_file = taken / "sub"
    code = cli.main(["train", "--corpus", corpus, "--config", config, "--out", str(under_file)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"usage error: --out {under_file} is under {taken}, which is not a directory\n"
    )
    assert taken.read_text() == "keep me\n"
    # an `--out` file that cannot be written is named before any checkpoint
    # or corpus is read, so a missing checkpoint is never reached either
    checkpoint = str(trained[2])
    in_missing_dir = tmp_path / "no_such_dir" / "x.txt"
    in_a_file = taken / "x.txt"
    unplaced = "is not in an existing directory"
    for argv, out, why in (
        (["evaluate", "--checkpoint", checkpoint], folder, "is a directory"),
        (["predict", "--checkpoint", checkpoint], folder, "is a directory"),
        (["ablate", "--config", config], folder, "is a directory"),
        (["evaluate", "--checkpoint", str(tmp_path / "missing.npz")], folder, "is a directory"),
        (["evaluate", "--checkpoint", checkpoint], in_missing_dir, unplaced),
        (["predict", "--checkpoint", checkpoint], in_missing_dir, unplaced),
        (["ablate", "--config", config], in_missing_dir, unplaced),
        (["predict", "--checkpoint", checkpoint], in_a_file, unplaced),
    ):
        capsys.readouterr()
        assert cli.main([*argv, "--corpus", corpus, "--out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == f"usage error: --out {out} {why}\n", argv
        assert captured.out == "", argv
    assert not in_missing_dir.parent.exists()
    assert taken.read_text() == "keep me\n"


def test_config_keys_are_the_config_dataclass_fields():
    assert set(cli.CONFIG_DEFAULTS) == {
        "mode", "mp_variant", "rounds", "d", "m", "d_t", "gcn_layers", "cnn_layers",
        "learning_rate", "batch_size", "epochs", "seed", "runs", "dev_ratio", "dropout",
        "opinion_passing", "normalize_adjacency", "distinct_reverse_types",
        "freeze_embeddings", "pass_pre_attention_as", "general_dim", "domain_dim",
    }
    assert cli.build_configs(cli.CONFIG_DEFAULTS) == (TrainConfig(), ModelConfig())


def test_data_errors_exit_2(tmp_path, workspace, fixtures_dir, capsys):
    _, corpus, config = workspace
    malformed = tmp_path / "broken.corpus"
    malformed.write_text("word O none\n")  # 3 columns instead of 5
    assert cli.main(["train", "--corpus", str(malformed), "--config", config]) == 2
    cyclic = tmp_path / "cyclic.corpus"
    cyclic.write_text("a O none 1 x\nb O none 0 y\nc O none ROOT root\n")
    assert cli.main(["stats", "--corpus", str(cyclic)]) == 2
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"nope")
    assert cli.main(["evaluate", "--checkpoint", str(garbage), "--corpus", str(malformed)]) == 2
    # 2 sentences: dev_ratio 0.2 leaves no dev sentence, 0.9 no train sentence
    two = tmp_path / "two.corpus"
    two.write_text("\n\n".join((fixtures_dir / "tiny.corpus").read_text().split("\n\n")[:2]))
    for ratio in ("0.2", "0.9"):
        split_conf = tmp_path / "split.conf"
        split_conf.write_text(SMALL_CONFIG + f"dev_ratio = {ratio}\n")
        code, out = run_train(tmp_path, str(two), str(split_conf))
        assert code == 2, ratio
        assert not (out / "manifest.json").exists(), ratio
        assert not out.exists(), ratio
    # a deprel named like a reverse relation type would share its row
    reserved = tmp_path / "reserved.corpus"
    reserved.write_text(pathlib.Path(corpus).read_text().replace(" det\n", " rev:nsubj\n", 1))
    reverse_conf = tmp_path / "reverse.conf"
    reverse_conf.write_text(SMALL_CONFIG + "distinct_reverse_types = true\n")
    code, out = run_train(tmp_path, str(reserved), str(reverse_conf))
    assert code == 2
    assert not out.exists()
    # a corpus or embedding file that is not UTF-8 names the line of its first bad byte
    latin = tmp_path / "latin1.corpus"
    latin.write_bytes(b"a O none ROOT root\n\ncaf\xe9 O none ROOT root\n")
    capsys.readouterr()
    assert cli.main(["stats", "--corpus", str(latin)]) == 2
    assert capsys.readouterr().err == f"data error: {latin}: line 3: byte 0xe9 is not UTF-8\n"
    latin_emb = tmp_path / "latin1.emb"
    latin_emb.write_bytes(b"coffee 0.1 0.2 0.3 0.4\ncaf\xe9 0.1 0.2 0.3 0.4\n")
    emb_conf = tmp_path / "emb.conf"
    emb_conf.write_text(SMALL_CONFIG.replace("general_dim = 6", "general_dim = 4"))
    code, out = run_train(tmp_path, corpus, str(emb_conf), extra=["--general-emb", str(latin_emb)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"data error: {latin_emb}: line 2: byte 0xe9 is not UTF-8\n"
    # a corpus of blank lines holds no sentence
    blank = tmp_path / "blank.corpus"
    blank.write_text("\n  \n\t\n\n")
    assert cli.main(["stats", "--corpus", str(blank)]) == 2
    assert capsys.readouterr().err == f"data error: corpus file {blank} contains no sentences\n"


def _meta_member(meta):
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def rewrite_checkpoint(src, dst, edit):
    """Copy a checkpoint, letting edit(meta, arrays) change it on the way;
    an edit that sets arrays["meta"] replaces the metadata member whole."""
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    edit(meta, arrays)
    arrays.setdefault("meta", _meta_member(meta))
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def test_non_finite_checkpoint_exits_2(trained, capsys):
    tmp_path, corpus, checkpoint = trained
    bad = tmp_path / "nan.npz"

    def poison(meta, arrays):
        arrays["param:ae/hidden_b"][0] = np.nan

    rewrite_checkpoint(checkpoint, bad, poison)
    capsys.readouterr()
    assert cli.main(["evaluate", "--checkpoint", str(bad), "--corpus", corpus]) == 2
    out = capsys.readouterr()
    assert "'ae/hidden_b' has non-finite values" in out.err
    assert "f1_a" not in out.out


def _set_param(name, make):
    """An edit that replaces parameter member `name` by make(its array)."""
    def edit(meta, arrays):
        arrays[f"param:{name}"] = make(arrays[f"param:{name}"])
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_param("ae/hidden_b", lambda a: np.full(a.shape, "abc")),
         "parameter 'ae/hidden_b' has dtype <U3, not float64"),
        (_set_param("ae/hidden_b", lambda a: a.astype(str)), "parameter 'ae/hidden_b' has dtype <U"),
        (_set_param("ae/hidden_b", lambda a: a != 0), "parameter 'ae/hidden_b' has dtype bool"),
        (_set_param("ae/hidden_b", lambda a: a + 1j), "parameter 'ae/hidden_b' has dtype complex128"),
        (_set_param("ae/hidden_b", lambda a: a.astype(np.int64)), "parameter 'ae/hidden_b' has dtype int64"),
        (_set_param("emb/general", lambda a: a.astype(np.int64)), "parameter 'emb/general' has dtype int64"),
        (_set_param("ae/out_w", lambda a: a[:, :-1]),
         "parameter 'ae/out_w' has shape (5, 3), expected (5, 4)"),
        (_set_param("as/bilinear", lambda a: a.reshape(-1)),
         "parameter 'as/bilinear' has shape (16,), expected (4, 4)"),
        (lambda meta, arrays: arrays.pop("param:as/out_b"), "parameter 'as/out_b' is missing"),
        (lambda meta, arrays: arrays.update({"param:as/extra": np.zeros(3)}),
         "extra parameters ['as/extra']"),
    ],
    ids=["str", "numeric_str", "bool", "complex", "int64", "int64_embedding", "narrow",
         "flattened", "missing", "extra"],
)
def test_wrong_parameter_member_exits_2(trained, capsys, edit, message):
    """A parameter member that is not float64 of its declared shape, or one
    missing or extra, is malformed: exit 2, named, and no traceback."""
    tmp_path, corpus, checkpoint = trained
    bad = tmp_path / "wrong_param.npz"
    rewrite_checkpoint(checkpoint, bad, edit)
    capsys.readouterr()
    for command in ("evaluate", "predict"):
        assert cli.main([command, "--checkpoint", str(bad), "--corpus", corpus]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("data error: malformed checkpoint") and message in out.err
        assert "Traceback" not in out.err and out.out == ""


def test_load_checkpoint_draws_nothing(trained, monkeypatch):
    """A checkpoint's parameters are its stored arrays: loading one makes
    no random generator and draws no throwaway model."""
    checkpoint = trained[2]

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    model = load_checkpoint(str(checkpoint))
    with np.load(checkpoint) as data:
        for name, p in model.parameters().items():
            assert p.data.tobytes() == data[f"param:{name}"].tobytes(), name
        assert sorted(data.files) == sorted(["meta", *(f"param:{k}" for k in model.parameters())])


def _set_first_word(key, row):
    def edit(meta, arrays):
        meta[key][next(iter(meta[key]))] = row
    return edit


def _replace_meta(value):
    """An edit that writes `value` as the whole metadata."""
    def edit(meta, arrays):
        arrays["meta"] = _meta_member(value)
    return edit


def _set_meta(path, value):
    """An edit that sets the metadata leaf at key path `path` to `value`."""
    def edit(meta, arrays):
        node = meta
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta, arrays: meta["config"]["encoder"].update(mode="bogus"), "unknown encoder mode"),
        (lambda meta, arrays: meta["config"].pop("d_t"), "KeyError: 'd_t'"),
        (lambda meta, arrays: meta.pop("general_vocab"), "KeyError: 'general_vocab'"),
        (_set_first_word("general_vocab", 10_000), "outside its table's"),
        (_set_first_word("domain_vocab", -1), "outside its table's"),
        (_set_first_word("relation_vocab", 99), "outside its table's"),
        (lambda meta, arrays: meta["relation_vocab"].update({"<unk>": 0}), "to one id, 0"),
        (_set_first_word("general_vocab", 2.5), "to 2.5, not an integer id"),
        (_set_first_word("general_vocab", True), "to True, not an integer id"),
        (_set_first_word("domain_vocab", "1"), "to '1', not an integer id"),
        (_set_first_word("relation_vocab", 2.5), "to 2.5, not an integer id"),
        (_set_first_word("relation_vocab", False), "to False, not an integer id"),
        (_set_meta(("general_dim",), "abc"), "general_dim is 'abc', not the width"),
        (_set_meta(("general_dim",), 6.0), "general_dim is 6.0, not the width"),
        (_set_meta(("domain_dim",), 2), "domain_dim is 2, not the width"),
        (_set_meta(("config", "encoder", "d"), 2.5), "d must be int, got 2.5"),
        (_set_meta(("config", "encoder", "d"), True), "d must be int, got True"),
        (_set_meta(("config", "encoder", "m"), 1.5), "m must be int, got 1.5"),
        (_set_meta(("config", "encoder", "gcn_layers"), 2.5), "gcn_layers must be int, got 2.5"),
        (_set_meta(("config", "mp", "rounds"), 1.5), "rounds must be int, got 1.5"),
        (_set_meta(("config", "mp", "rounds"), 11), "ValueError: rounds must lie in [0, 10], got 11"),
        (_set_meta(("config", "d_t"), 2.5), "d_t must be int, got 2.5"),
        (_set_meta(("config", "encoder", "kernel_widths"), [3.5]),
         "kernel_widths must be a list of int, got [3.5]"),
        (_set_meta(("config", "encoder", "kernel_widths"), [-1]), "kernel widths must be odd"),
        (_replace_meta([1, 2]), "metadata is list, not an object"),
        (_replace_meta("x"), "metadata is str, not an object"),
        (_replace_meta(3), "metadata is int, not an object"),
        (_replace_meta(None), "metadata is NoneType, not an object"),
        # a declared size is compared with the stored array's before anything is allocated
        (_set_meta(("config", "encoder", "d"), 10**15),
         "parameter 'enc/in_w' has shape (8, 9), expected (1000000000000000, 9)"),
    ],
    ids=["unknown_mode", "missing_config_key", "missing_vocab", "word_past_table",
         "negative_word", "relation_past_table", "duplicate_relation_id",
         "fractional_word_id", "boolean_word_id", "string_word_id",
         "fractional_relation_id", "boolean_relation_id", "string_dim", "float_dim",
         "wrong_width_dim", "fractional_d", "boolean_d", "fractional_m",
         "fractional_gcn_layers", "fractional_rounds", "too_many_rounds", "fractional_d_t",
         "fractional_kernel_width", "negative_kernel_width", "list_metadata",
         "string_metadata", "number_metadata", "null_metadata", "huge_d"],
)
def test_malformed_checkpoint_metadata_exits_2(trained, capsys, edit, message):
    tmp_path, corpus, checkpoint = trained
    bad = tmp_path / "malformed.npz"
    rewrite_checkpoint(checkpoint, bad, edit)
    capsys.readouterr()
    for command in ("evaluate", "predict"):
        assert cli.main([command, "--checkpoint", str(bad), "--corpus", corpus]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed checkpoint") and message in err


def _leaf_paths(node, path=()):
    """The key path of every leaf (a value that is no dict or list)."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


# every kind of wrong JSON value a metadata leaf can be replaced with
WRONG_VALUES = st.one_of(
    st.text(max_size=3),
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()),
    st.booleans(),
    st.none(),
    st.integers(max_value=-1),
    st.lists(st.integers(-2, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 5), max_size=2),
)


def test_any_wrong_metadata_leaf_exits_0_or_2(trained, fixtures_dir, capsys):
    """One leaf of a train-written checkpoint's metadata, at any key path
    (config sub-keys and vocabulary ids included), replaced by a wrong value:
    `evaluate` returns 0 or 2 and prints no traceback."""
    tmp_path, _, checkpoint = trained
    edited = tmp_path / "edited.npz"
    with np.load(checkpoint) as data:
        meta = json.loads(bytes(data["meta"]).decode())
    # the top-level key first, so the few scalar keys are drawn as often as a vocabulary
    groups = {key: list(_leaf_paths(meta[key], (key,))) for key in sorted(meta)}

    tiny = str(fixtures_dir / "tiny.corpus")

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(groups)).flatmap(lambda key: st.sampled_from(groups[key])), WRONG_VALUES)
    def check(path, value):
        rewrite_checkpoint(checkpoint, edited, _set_meta(path, value))
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", str(edited), "--corpus", tiny]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    check()


def test_any_corpus_text_exits_0_or_2(trained, capsys):
    """Corpus text with up to two faults, as the parse property draws it:
    `stats` and `predict` on a train-written checkpoint agree on 0 or 2 and
    print no traceback, and on 0 `predict`'s output parses back with the
    input's tokens, heads and deprels."""
    root, _, checkpoint = trained
    path = root / "drawn.corpus"

    @settings(max_examples=60, deadline=None)
    @given(corpus_texts())
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        capsys.readouterr()
        code = cli.main(["stats", "--corpus", str(path)])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        assert cli.main(["predict", "--checkpoint", str(checkpoint), "--corpus", str(path)]) == code
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        if code == 0:
            predicted, read = parse_corpus_file(out.out), parse_corpus_file(text)
            for column in ("tokens", "heads", "deprels"):
                assert [getattr(s, column) for s in predicted] == [getattr(s, column) for s in read]

    check()


# value text of each JSON type and none; no number is above 4, so every
# width, depth and count stays tiny
FUZZ_VALUES = st.sampled_from((
    "0", "1", "2", "4", "-1", "0.5", "0.01", "2.0", "-0.5", "nan", "inf", "1e999",
    "true", "False", '"dregcn"', "cnn_only", "vanilla_gcn", "predictions", "representations",
    "none", "abc", "",
))
# values of each key's own type (a learning rate above 1 may diverge, exit 4)
FUZZ_TYPED = {
    int: ("0", "1", "2", "4", "-1"),
    float: ("0", "0.1", "0.5", "-0.5", "nan"),
    bool: ("true", "false"),
    str: (*MODES, *MP_VARIANTS, "abc"),
}


def _fuzz_line(key):
    """`key = value`: three times in four a value of the key's type."""
    if key == "learning_rate":
        values = st.sampled_from(("0.01", "0.5", "0", "-1", "nan", "true", "abc", ""))
    else:
        typed = st.sampled_from(FUZZ_TYPED[type(cli.CONFIG_DEFAULTS[key])])
        values = st.sampled_from((typed,) * 3 + (FUZZ_VALUES,)).flatmap(lambda pool: pool)
    return values.map(lambda value: f"{key} = {value}")


# mostly a known key with a value of its type or any other; now and then an
# unknown key, a comment, a section header, a blank line or no `=` at all
FUZZ_LINES = st.sampled_from((True,) * 6 + (False,)).flatmap(
    lambda known: st.sampled_from(sorted(cli.CONFIG_DEFAULTS)).flatmap(_fuzz_line)
    if known
    else st.sampled_from((
        "dimension = 4", "epoch = 1", "# a comment", "[train]", "", "d = 2  # trailing", "no equals sign",
    ))
)


@st.composite
def train_configs(draw):
    """Config file bytes: small widths first, then drawn lines that may
    repeat or override a key, now and then with a byte that is not UTF-8."""
    lines = ["d = 4", "d_t = 2", "m = 2", "domain_dim = 2", "batch_size = 4"]
    lines += draw(st.lists(FUZZ_LINES, max_size=3))
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def test_any_config_and_embedding_text_trains_or_exits_1_or_2(workspace, capsys):
    """`train` for one epoch and run on drawn config text and, half the
    time, a drawn general embedding file (its width is the config's first
    line): exit 0, 1 or 2 with no traceback; a failed run leaves no `--out`,
    and each checkpoint a run writes loads in `evaluate` and `predict`."""
    root, corpus, _ = workspace
    config, emb, out = root / "drawn.conf", root / "drawn.emb", root / "run"

    @settings(max_examples=60, deadline=None)
    @given(train_configs(), st.none() | embedding_texts())
    @example(b"d = 4\nd_t = 2\nm = 2\nmode = dregcn\nfreeze_embeddings = true", ("a 0.5 1 0\n", 3))
    def check(config_bytes, embedding):
        config.write_bytes(config_bytes)
        argv = ["train", "--corpus", corpus, "--config", str(config), "--out", str(out)]
        argv += ["--epochs", "1", "--runs", "1"]
        if embedding is not None:
            text, dim = embedding
            emb.write_text(text, encoding="utf-8", newline="")
            config.write_bytes(f"general_dim = {dim}\n".encode() + config_bytes)
            argv += ["--general-emb", str(emb)]
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        code = cli.main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
        if code != 0:
            assert not out.exists()
            return
        checkpoints = sorted(out.glob("checkpoint_seed*.npz"))
        assert checkpoints
        for checkpoint in checkpoints:
            for command in ("evaluate", "predict"):
                assert cli.main([command, "--checkpoint", str(checkpoint), "--corpus", corpus]) == 0
        assert "Traceback" not in capsys.readouterr().err

    check()


# (config file text, JSON value) pairs of the wrong type for each field type
WRONG_TYPED = {
    int: (("true", True), ("2.5", 2.5), ("2.0", 2.0), ("abc", "abc")),
    float: (("true", True), ("abc", "abc")),
    bool: (("1", 1), ("abc", "abc")),
    str: (("3", 3), ("true", True)),
}
# each config dataclass and the key path of its fields in checkpoint metadata
CONFIG_PATHS = (
    (TrainConfig, None),
    (EncoderConfig, ("config", "encoder")),
    (MessagePassingConfig, ("config", "mp")),
    (ModelConfig, ("config",)),
)
SCALAR_FIELDS = [
    (path, f.name, t)
    for cls, path in CONFIG_PATHS
    for f in dataclasses.fields(cls)
    if (t := get_type_hints(cls)[f.name]) in WRONG_TYPED
]


@pytest.mark.parametrize("path, name, t", SCALAR_FIELDS, ids=[name for _, name, _ in SCALAR_FIELDS])
def test_one_type_rule_for_config_files_and_checkpoints(trained, capsys, path, name, t):
    """A value of the wrong type for a field is a usage error in a config
    file (exit 1, no `--out`) and a data error in checkpoint metadata (exit 2)."""
    root, corpus, checkpoint = trained
    key = "mp_variant" if name == "variant" else name
    conf, out, edited = root / "wrong.conf", root / f"wrong_{name}", root / "wrong.npz"
    for text, value in WRONG_TYPED[t]:
        conf.write_text(SMALL_CONFIG + f"{key} = {text}\n")
        capsys.readouterr()
        assert cli.main(["train", "--corpus", corpus, "--config", str(conf), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {key} must be "), text
        assert not out.exists(), text
        if path is None:  # a TrainConfig is not stored in checkpoints
            continue
        rewrite_checkpoint(checkpoint, edited, _set_meta(path + (name,), value))
        assert cli.main(["evaluate", "--checkpoint", str(edited), "--corpus", corpus]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed checkpoint"), value
        assert f"TypeError: {name} must be " in err, value


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


def test_most_rounds_train_and_evaluate(workspace, capsys):
    tmp_path, corpus, config = workspace
    code, out = run_train(tmp_path, corpus, config, extra=["--rounds", str(MAX_ROUNDS)])
    assert code == 0
    assert load_checkpoint(str(out / "checkpoint_seed0.npz")).cfg.mp.rounds == MAX_ROUNDS
    assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint_seed0.npz"), "--corpus", corpus]) == 0
    assert "f1_i = " in capsys.readouterr().out


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


def test_manifest_names_environment_configs_and_history(workspace):
    tmp_path, corpus, config = workspace
    code, out = run_train(tmp_path, corpus, config, extra=["--epochs", "2", "--runs", "2"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["dregcn_absa"] == dregcn_absa.__version__
    assert set(env["blas"]) == {"name", "version"}
    model_cfg = ModelConfig.from_dict(manifest["model_config"])
    assert (model_cfg.encoder.d, model_cfg.d_t, model_cfg.dropout) == (8, 4, 0.5)
    assert TrainConfig(**manifest["train_config"]) == TrainConfig(
        epochs=2, runs=2, batch_size=4, learning_rate=0.01
    )
    assert [len(h) for h in manifest["history"]] == [2, 2]
    for history, final in zip(manifest["history"], manifest["history_final_epoch"]):
        assert history[-1] == final


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


def _scores_printed(text):
    """The five scores of `evaluate` output, as printed."""
    values = dict(line.split(" = ") for line in text.splitlines())
    return {name: values[name] for name in METRICS}


def test_dev_and_test_corpora_pick_what_each_run_is_scored_on(workspace, fixtures_dir, capsys):
    """Trained against `--dev-corpus`, a corpus too small to split trains;
    each run is scored on `--test-corpus`, or on the dev corpus when no test
    corpus is given, and both files are named in the manifest."""
    tmp_path, _, config = workspace
    one, dev, test = (tmp_path / f"{name}.corpus" for name in ("one", "dev", "test"))
    for path, text in zip((one, dev, test), (fixtures_dir / "tiny.corpus").read_text().split("\n\n")):
        path.write_text(text.strip() + "\n")
    code, out = run_train(tmp_path, str(one), config)
    assert code == 2 and not out.exists()
    assert "splitting 1 sentences" in capsys.readouterr().err

    runs = {}
    for name, corpora in (("dev", {"dev_corpus": dev}), ("test", {"dev_corpus": dev, "test_corpus": test})):
        flags = [arg for key, path in corpora.items() for arg in ("--" + key.replace("_", "-"), str(path))]
        out = tmp_path / name
        assert cli.main(["train", "--corpus", str(one), "--config", config, "--out", str(out),
                         "--runs", "2", "--epochs", "3", *flags]) == 0
        runs[name] = manifest = json.loads((out / "manifest.json").read_text())
        named = {k: v for k, v in manifest["digests"].items() if k in ("dev_corpus", "test_corpus")}
        assert named == {k: hashlib.sha256(path.read_bytes()).hexdigest() for k, path in corpora.items()}
        target = corpora.get("test_corpus", dev)
        for ckpt, scores in zip(manifest["checkpoints"], manifest["per_run"], strict=True):
            capsys.readouterr()
            assert cli.main(["evaluate", "--checkpoint", ckpt, "--corpus", str(target)]) == 0
            printed = _scores_printed(capsys.readouterr().out)
            assert printed == {k: f"{100 * v:.2f}" for k, v in scores.items()}, (name, ckpt)
    # the test corpus changes what the same checkpoints are scored on, not how they train
    for a, b in zip(runs["dev"]["checkpoints"], runs["test"]["checkpoints"], strict=True):
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
    assert runs["dev"]["per_run"] != runs["test"]["per_run"]


def test_evaluate_predict_stats(workspace, capsys):
    tmp_path, corpus, config = workspace
    _, out = run_train(tmp_path, corpus, config)
    ckpt = str(out / "checkpoint_seed0.npz")
    capsys.readouterr()

    scores_path = tmp_path / "scores.txt"
    assert cli.main(["evaluate", "--checkpoint", ckpt, "--corpus", corpus, "--out", str(scores_path)]) == 0
    text = capsys.readouterr().out
    for key in ("f1_a", "f1_o", "acc_s", "f1_s", "f1_i"):
        assert f"{key} = " in text
    assert scores_path.read_text() == text

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
    rows_path = tmp_path / "ablation.txt"
    assert cli.main(["ablate", "--corpus", corpus, "--config", config, "--out", str(rows_path)]) == 0
    text = capsys.readouterr().out
    assert rows_path.read_text() == text
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) == 6
    labels = [l.split()[1] for l in lines]
    assert labels == [label for label, _ in cli.ABLATION_ROWS]
    assert labels[0] == "cnn" and labels[2] == "dregcn"
    assert all("f1_i = " in l for l in lines)


@pytest.mark.parametrize("argv", [
    ["ablate", "--mode", "cnn_only"],
    ["ablate", "--mp-variant", "none"],
    ["gradcheck", "--rounds", "3"],
], ids=["ablate-mode", "ablate-mp-variant", "gradcheck-rounds"])
def test_a_command_takes_no_flag_it_does_not_read(workspace, capsys, argv):
    """Every ablate row sets its own mode and variant, and gradcheck builds
    no model from the config, so these flags are usage errors, not no-ops."""
    _, corpus, config = workspace
    extra = ["--corpus", corpus, "--config", config] if argv[0] == "ablate" else []
    assert cli.main([*argv, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_ablate_builds_its_embedding_tables_once(workspace, monkeypatch, capsys):
    """The six rows share one seed, so they share one pair of tables."""
    _, corpus, config = workspace
    calls = []

    def counted(*args):
        calls.append(args[1])  # the width
        return random_embedding_table(*args)

    monkeypatch.setattr(cli, "random_embedding_table", counted)
    assert cli.main(["ablate", "--corpus", corpus, "--config", config]) == 0
    assert calls == [6, 3]  # SMALL_CONFIG's general_dim and domain_dim


# ---------------------------------------------------------------------------
# gradcheck command


def test_gradcheck_passes_and_lists_every_check(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 8  # one line per checked operation
    assert all(l.startswith("ok ") for l in lines)
    assert any("full_model_T2" in l for l in lines)


@pytest.mark.parametrize("seed", [2, 3, 4, 5, 6, 7])
def test_gradcheck_passes_beyond_seed_0(seed, capsys):
    """Other seeds draw other instances, which a change in rounding reaches
    as it reaches seed 0's. Seed 1 is left out: one of its instances fails
    on central-difference round-off, not on a wrong gradient (ROADMAP item
    12)."""
    assert cli.main(["gradcheck", "--seed", str(seed)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines and all(l.startswith("ok ") for l in lines)


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
