"""End-to-end checks for the command-line interface.

Everything runs through main(argv) on a small synthetic dataset,
in-process except the golden-hash and BLAS-thread tests, which need
their own BLAS settings and so run in subprocesses; the heavyweight
fixtures (dataset, trained checkpoint) are session-scoped so the whole
file stays fast.
"""

import filecmp
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlrm import cli
from mlrm.autodiff import Tensor
from mlrm.checkpoint import load_checkpoint, save_checkpoint
from mlrm.cli import _write_manifest, main
from mlrm.errors import FormatError
from mlrm.model import ModelConfig
from mlrm.notes import load_notes
from mlrm.prompting import Vocab, note_tokens
from mlrm.retrieval import EmbeddingTable, load_table, save_table
from mlrm.saliency import CSV_FIELDS, SaliencyReport, write_report
from mlrm.training import LossConfig, OptimConfig, RunSettings, decode_config

ROOT = Path(__file__).resolve().parents[1]

TINY_MODEL = {
    "model": {"hidden_text": 32, "visual_tokens": 4, "lm_layers": 2,
              "lm_heads": 2, "out_dim": 16, "mode": "notellm2"},
    "optim": {"steps": 4, "peak_lr": 0.003},
    "run": {"seed": 11, "batch_pairs": 4},
}


def write_config(path, steps=4):
    cfg = json.loads(json.dumps(TINY_MODEL))
    cfg["optim"]["steps"] = steps
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    assert main(["gen-data", "--seed", "5", "--notes", "40", "--clusters", "2",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def trained(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root / "cfg.json")
    out = root / "run"
    assert main(["train", "--config", cfg, "--dataset", str(dataset),
                 "--out", str(out)]) == 0
    return out / "checkpoint.mlrm"


@pytest.fixture(scope="session")
def midway(tmp_path_factory, dataset):
    """The step-2 checkpoint of a 4-step run on ``dataset``."""
    root = tmp_path_factory.mktemp("midway")
    assert main(["train", "--config", write_config(root / "cfg.json"), "--dataset",
                 str(dataset), "--checkpoint-every", "2", "--out", str(root / "run")]) == 0
    return root / "run" / "checkpoint-000002.mlrm"


# ---------------------------------------------------------------------------
# parser basics


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_no_subcommand_is_config_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bad_mode_enumerates_choices(capsys):
    code = main(["train", "--mode", "bogus", "--dataset", "x", "--out", "y"])
    err = capsys.readouterr().err
    assert code == 2
    for name in ("basic", "micl", "late_fusion", "notellm2",
                 "only_late_fusion", "omni"):
        assert name in err


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_files_and_manifest_count(dataset):
    for name in ("notes.jsonl", "events.jsonl", "pairs.jsonl", "vocab.txt",
                 "meta.json", "manifest.json"):
        assert (dataset / name).is_file()
    manifest = json.loads((dataset / "manifest.json").read_text())
    with open(dataset / "notes.jsonl", "r", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    assert manifest["counts"]["notes"] == lines == 40
    assert manifest["command"] == "gen-data"
    assert manifest["seed"] == 5
    assert manifest["version"]


def test_manifest_records_blas_facts(dataset):
    # the training bytes depend on the BLAS and its thread count, so every
    # manifest names both
    blas = json.loads((dataset / "manifest.json").read_text())["blas"]
    built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert blas["name"] == f"{built['name']} {built['version']}"
    assert blas["threads"] == {var: os.environ.get(var) for var in BLAS_VARS}
    assert all(value is not None for value in blas["threads"].values())


def test_gen_data_same_seed_identical_files(tmp_path, dataset):
    again = tmp_path / "ds2"
    assert main(["gen-data", "--seed", "5", "--notes", "40", "--clusters", "2",
                 "--out", str(again)]) == 0
    for name in ("notes.jsonl", "events.jsonl", "pairs.jsonl", "vocab.txt",
                 "meta.json"):
        assert filecmp.cmp(dataset / name, again / name, shallow=False), name


def test_io_failure_exits_3_with_one_line(tmp_path, fill_disk, capsys):
    fill_disk(0)  # the manifest write hits a full disk
    code = main(["gen-data", "--seed", "5", "--notes", "40", "--clusters", "2",
                 "--out", str(tmp_path / "ds")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "No space left" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "ds" / "manifest.json").exists()


def test_gen_data_invalid_rho(tmp_path, capsys):
    out = tmp_path / "bad"
    assert main(["gen-data", "--rho", "2", "--out", str(out)]) == 2
    assert "rho" in capsys.readouterr().err
    assert not out.exists()  # nothing written on a config error


def test_gen_data_negative_seed_is_config_error(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("gen-data generated a dataset for a negative seed")
    monkeypatch.setattr(cli, "generate_dataset", never)
    out = tmp_path / "bad"
    assert main(["gen-data", "--seed", "-1", "--notes", "40", "--clusters", "2",
                 "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_outputs_and_rerun_identical(tmp_path, dataset):
    cfg = write_config(tmp_path / "cfg.json")
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["train", "--config", cfg, "--dataset", str(dataset),
                     "--out", str(out)]) == 0
    for name in ("checkpoint.mlrm", "metrics.jsonl", "manifest.json"):
        assert (first / name).is_file()
    assert filecmp.cmp(first / "checkpoint.mlrm", second / "checkpoint.mlrm",
                       shallow=False)
    assert filecmp.cmp(first / "metrics.jsonl", second / "metrics.jsonl",
                       shallow=False)


def _forbid_loading(monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError(f"{command} read a file before checking its options")
    for name in ("load_state", "load_notes", "load_pairs"):
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize("every", ["-1", "-2"])
def test_train_rejects_negative_checkpoint_every(tmp_path, dataset, capsys, monkeypatch,
                                                 every):
    _forbid_loading(monkeypatch, "train")
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path / "cfg.json"),
                 "--dataset", str(dataset), "--checkpoint-every", every,
                 "--out", str(out)]) == 2
    assert "--checkpoint-every" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_train_rejects_negative_seed(tmp_path, dataset, capsys, monkeypatch, where):
    _forbid_loading(monkeypatch, "train")
    cfg = write_config(tmp_path / "cfg.json")
    flag = ["--seed", "-3"]
    if where == "config":
        blob = json.loads(Path(cfg).read_text())
        blob["run"]["seed"] = -3
        Path(cfg).write_text(json.dumps(blob))
        flag = []
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--dataset", str(dataset), *flag,
                 "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, optim, want", [
    (["--lr", "nan"], {}, "peak_lr"),
    (["--lr", "inf"], {}, "peak_lr"),
    ([], {"peak_lr": float("nan")}, "peak_lr"),
    ([], {"eps": float("inf")}, "eps"),
    ([], {"eps": float("nan")}, "eps"),
    ([], {"weight_decay": float("nan")}, "weight_decay"),
    ([], {"weight_decay": float("inf")}, "weight_decay"),
    ([], {"weight_decay": -0.1}, "weight_decay"),
    ([], {"max_grad_norm": -1.0}, "max_grad_norm"),
    ([], {"max_grad_norm": 0.0}, "max_grad_norm"),
    ([], {"max_grad_norm": float("nan")}, "max_grad_norm"),
    (["--batch-pairs", "1"], {}, "a one-pair batch has no negatives"),
], ids=["lr-flag-nan", "lr-flag-inf", "lr-nan", "eps-inf", "eps-nan", "decay-nan",
        "decay-inf", "decay-negative", "clip-negative", "clip-zero", "clip-nan",
        "batch-pairs-flag-one"])
def test_train_rejects_bad_optimizer_values(tmp_path, dataset, capsys, monkeypatch,
                                            flag, optim, want):
    # a NaN rate makes every parameter NaN, a negative clip norm flips
    # every gradient's sign and a one-pair batch has a loss of exactly 0,
    # so each must stop before any file is read
    _forbid_loading(monkeypatch, "train")
    monkeypatch.setattr(cli.Vocab, "load", lambda *a: pytest.fail("read the vocabulary"))
    cfg = write_config(tmp_path / "cfg.json")
    blob = json.loads(Path(cfg).read_text())
    blob["optim"].update(optim)
    Path(cfg).write_text(json.dumps(blob))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--dataset", str(dataset), *flag,
                 "--out", str(out)]) == 2
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_train_flag_beats_config_file(tmp_path, dataset):
    cfg = write_config(tmp_path / "cfg.json", steps=7)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--dataset", str(dataset),
                 "--out", str(out), "--steps", "3"]) == 0
    records = [json.loads(line) for line in
               (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2, 3]


def test_train_resume_matches_uninterrupted_run(tmp_path, dataset):
    cfg = write_config(tmp_path / "cfg.json", steps=6)
    full, paused, resumed = tmp_path / "full", tmp_path / "paused", tmp_path / "res"
    assert main(["train", "--config", cfg, "--dataset", str(dataset),
                 "--out", str(full), "--checkpoint-every", "0"]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(dataset),
                 "--out", str(paused), "--checkpoint-every", "3"]) == 0
    mid = paused / "checkpoint-000003.mlrm"
    assert mid.is_file()  # periodic checkpoint, distinct from the final one
    assert main(["train", "--resume", str(mid), "--dataset", str(dataset),
                 "--out", str(resumed)]) == 0
    assert filecmp.cmp(full / "checkpoint.mlrm", resumed / "checkpoint.mlrm",
                       shallow=False)


def test_train_resume_into_own_out_matches_uninterrupted_run(tmp_path, dataset, capsys):
    cfg = write_config(tmp_path / "cfg.json", steps=6)
    full, run = tmp_path / "full", tmp_path / "run"
    assert main(["train", "--config", cfg, "--dataset", str(dataset),
                 "--out", str(full), "--checkpoint-every", "0"]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(dataset),
                 "--out", str(run), "--checkpoint-every", "2"]) == 0
    metrics = run / "metrics.jsonl"
    written = metrics.read_bytes()
    resume = ["train", "--resume", str(run / "checkpoint-000002.mlrm"),
              "--dataset", str(dataset), "--out", str(run)]
    metrics.write_bytes(b"not a record\n" + written)
    assert main(resume) == 3
    assert "not a metrics record" in capsys.readouterr().err
    # records 3-6 are written again; a trailing partial line is an interrupted write
    metrics.write_bytes(written + b'{"step":7,"lo')
    assert main(resume) == 0
    for name in ("metrics.jsonl", "checkpoint.mlrm"):
        assert filecmp.cmp(full / name, run / name, shallow=False)


def _first_differing_line(a, b):
    lines = zip(a.read_text().splitlines(), b.read_text().splitlines())
    return next(n for n, (x, y) in enumerate(lines, 1) if x != y)


@pytest.mark.parametrize("command", ["train", "analyze"])
def test_other_datasets_vocabulary_is_data_error(tmp_path, dataset, midway, capsys,
                                                 monkeypatch, command):
    # a dataset of another seed has other words; the checkpoint would look
    # them up in its own vocabulary and train or analyze on the wrong rows
    other = tmp_path / "other"
    assert main(["gen-data", "--seed", "6", "--notes", "40", "--clusters", "2",
                 "--out", str(other)]) == 0
    line = _first_differing_line(other / "vocab.txt", dataset / "vocab.txt")
    for name in ("load_notes", "load_pairs"):
        monkeypatch.setattr(cli, name, lambda *a: pytest.fail("read the dataset"))
    out = tmp_path / "out"
    argv = (["train", "--resume", str(midway)] if command == "train"
            else ["analyze", "--checkpoint", str(midway)])
    assert main([*argv, "--dataset", str(other), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{other / 'vocab.txt'} is not the checkpoint's vocabulary: line {line} holds" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "analyze"])
def test_dataset_with_the_checkpoints_vocabulary_is_accepted(tmp_path, dataset, midway,
                                                             capsys, command):
    # a dataset derived from the training one, here with half its pairs,
    # keeps its vocab.txt and so its checkpoints
    derived = tmp_path / "derived"
    shutil.copytree(dataset, derived)
    pairs = (dataset / "pairs.jsonl").read_text().splitlines(keepends=True)
    (derived / "pairs.jsonl").write_text("".join(pairs[::2]))
    for ds in (dataset, derived):
        out = tmp_path / f"{command}-{ds.name}"
        argv = (["train", "--resume", str(midway)] if command == "train"
                else ["analyze", "--checkpoint", str(midway), "--batches", "1"])
        assert main([*argv, "--dataset", str(ds), "--out", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "analyze"])
def test_pair_with_an_unknown_note_is_data_error(tmp_path, dataset, trained, capsys, command):
    # the pair is named before the first batch, not as a KeyError once a
    # batch holds it
    broken = tmp_path / "broken"
    shutil.copytree(dataset, broken)
    with open(broken / "pairs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"query": 0, "related": 99999, "score": 1.0}) + "\n")
    out = tmp_path / "out"
    argv = (["train", "--config", write_config(tmp_path / "cfg.json", steps=80)]
            if command == "train" else ["analyze", "--checkpoint", str(trained), "--batches", "40"])
    assert main([*argv, "--dataset", str(broken), "--out", str(out)]) == 3
    assert "pair (0, 99999) references an unknown note" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists() and not (out / "saliency.json").exists()


def _notes_argv(command, notes, pairs, out):
    if command == "eval":
        return ["eval", "--pool", str(notes), "--pairs", str(pairs), "--out", str(out)]
    return ["export-embeddings", "--notes", str(notes), "--out", str(out / "t.emb")]


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
def test_notes_with_words_outside_the_checkpoints_vocabulary_are_data_error(
        tmp_path, dataset, trained, capsys, monkeypatch, command):
    # a dataset of another seed has other words, which would all be
    # embedded as <UNK>
    other = tmp_path / "other"
    assert main(["gen-data", "--seed", "6", "--notes", "40", "--clusters", "2",
                 "--out", str(other)]) == 0
    vocab = Vocab.load(dataset / "vocab.txt")
    note, token = next((n, tok) for n in load_notes(other / "notes.jsonl")
                       for tok in note_tokens(n) if tok not in vocab.index)
    monkeypatch.setattr(cli, "build_table", lambda *a, **k: pytest.fail("built a table"))
    out = tmp_path / "out"
    argv = _notes_argv(command, other / "notes.jsonl", other / "pairs.jsonl", out)
    assert main([*argv, "--checkpoint", str(trained)]) == 3
    assert (f"note {note.id} has the token {token!r}, which is not in the checkpoint's "
            f"vocabulary") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
def test_pool_from_the_checkpoints_own_notes_is_accepted(tmp_path, dataset, trained, capsys,
                                                          command):
    pool = tmp_path / "pool.jsonl"
    lines = (dataset / "notes.jsonl").read_text().splitlines(keepends=True)
    pool.write_text("".join(lines[:30]))
    out = tmp_path / "out"
    argv = _notes_argv(command, pool, dataset / "pairs.jsonl", out)
    assert main([*argv, "--checkpoint", str(trained)]) == 0
    capsys.readouterr()


def test_train_resume_rejects_conflicting_flags(tmp_path, dataset, trained, capsys):
    out = tmp_path / "run"
    code = main(["train", "--resume", str(trained), "--dataset", str(dataset),
                 "--out", str(out), "--steps", "9"])
    assert code == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_of_a_finished_run_is_config_error(tmp_path, dataset, trained, capsys):
    # ``trained`` is at the last step of its schedule: a resume has nothing to
    # train, and would leave a manifest naming files it never wrote
    out = tmp_path / "run"
    code = main(["train", "--resume", str(trained), "--dataset", str(dataset),
                 "--out", str(out)])
    assert code == 2
    assert "is at step 4, the end of its schedule" in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_dataset_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--mode", "basic", "--dataset", str(tmp_path / "nope"),
                 "--out", str(out)]) == 3
    capsys.readouterr()
    assert not out.exists()


def test_non_utf8_vocab_is_data_error(tmp_path, dataset, capsys):
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    with open(copy / "vocab.txt", "ab") as fh:
        fh.write(b"\xff\xfe")
    assert main(["train", "--config", write_config(tmp_path / "cfg.json"),
                 "--dataset", str(copy), "--out", str(tmp_path / "run")]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path, dataset, capsys):
    path = Path(write_config(tmp_path / "cfg.json"))
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    assert main(["train", "--config", str(path), "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_requires_some_dataset(tmp_path, capsys):
    assert main(["train", "--mode", "basic", "--out", str(tmp_path / "o")]) == 2
    assert "dataset" in capsys.readouterr().err


@pytest.mark.parametrize("make_data", [
    lambda dataset: {"dataset": ["a"]},
    lambda dataset: {"datset": "x"},
    lambda dataset: {"dataset": str(dataset)},
], ids=["dataset-not-string", "unknown-key", "dataset-path"])
def test_bad_data_section_is_config_error_without_dataset_flag(tmp_path, dataset, capsys,
                                                               make_data):
    # --dataset is the one place the training dataset comes from; a config
    # file's data section, well-formed or not, does not stand in for it
    data = make_data(dataset)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"data": data}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "--dataset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_config_vocab_size_mismatch(tmp_path, dataset, capsys):
    cfg = json.loads(json.dumps(TINY_MODEL))
    cfg["model"]["vocab_size"] = 17
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--dataset", str(dataset),
                 "--out", str(tmp_path / "o")]) == 2
    assert "vocab_size" in capsys.readouterr().err


def test_unknown_config_section(tmp_path, dataset, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"models": {}}))
    code = main(["train", "--config", str(path), "--dataset", str(dataset),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("section, want", [
    ({"model": {"hidden_txt": 32}}, "hidden_txt"),
    ({"model": [1, 2]}, "'model'"),
    ({"optim": {"steps": "many"}}, "optim"),
    ({"data": "somewhere"}, "'data'"),
    ({"run": {"seed": "abc"}}, "seed"),
    ({"run": {"batch_pairs": True}}, "batch_pairs"),
    ({"model": {"freeze_vision": 1}}, "freeze_vision"),
    ({"data": {"dataset": ["a"]}}, "unknown config sections ['data']"),
    ({"data": {"datset": "x"}}, "unknown config sections ['data']"),
    ({"loss": {"mode": "basic"}}, "loss: unknown key 'mode'"),
    ({"loss": {"alpha": float("inf")}}, "alpha must be finite and positive"),
    ({"loss": {"tau_init": 1000}}, "tau_init must be finite and below 5.8718"),
    ({"model": {"lm_heads": 0}}, "lm_heads must be positive"),
    ({"model": {"vision_heads": -1}}, "vision_heads must be positive"),
    ({"model": {"ff_mult": 0}}, "ff_mult must be positive"),
    ({"model": {"eps": -1.0}}, "eps must be finite and positive"),
    ({"run": {"batch_pairs": 1}}, "a one-pair batch has no negatives"),
], ids=["unknown-key", "not-object", "bad-type", "data-not-object", "seed-not-int",
        "batch-pairs-bool", "freeze-vision-int", "dataset-not-string", "data-unknown-key",
        "loss-mode", "alpha-inf", "tau-init-overflows", "lm-heads-zero", "vision-heads-negative", "ff-mult-zero",
        "eps-negative", "batch-pairs-one"])
def test_bad_config_section_is_config_error(tmp_path, dataset, capsys, section, want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(section))
    code = main(["train", "--config", str(path), "--dataset", str(dataset),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_config_example_decodes(tmp_path):
    # the JSON block under "Config file sections" shows what train accepts
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("Config file sections", 1)[1].split("```json\n", 1)[1]
    path = tmp_path / "cfg.json"
    path.write_text(example.split("```", 1)[0])
    blob = cli._load_config_file(path)
    sections = {"model": ModelConfig, "loss": LossConfig, "optim": OptimConfig,
                "run": RunSettings}
    assert blob.keys() == sections.keys()
    blob["model"]["vocab_size"] = 10  # the dataset's vocabulary supplies it
    for name, cls in sections.items():
        decode_config(cls, blob[name], name)


def _drop(key):
    return lambda trailer: trailer.pop(key)


def _add_field(section):
    return lambda trailer: trailer[section].update(bogus=1)


@pytest.mark.parametrize("corrupt, want", [
    (_drop("loss"), "'loss'"), (_drop("optim"), "'optim'"), (_drop("run"), "'run'"),
    (_add_field("model"), "bogus"), (_add_field("run"), "bogus"),
    (lambda trailer: trailer.update(extra=1), "extra"),
    (lambda trailer: trailer.update(loss=[9.0]), "'loss'"),
    (lambda trailer: trailer["model"].update(lm_heads=0), "lm_heads must be positive"),
    (lambda trailer: trailer["model"].update(vision_heads=-1), "vision_heads must be positive"),
    (lambda trailer: trailer["model"].update(ff_mult=0), "ff_mult must be positive"),
    (lambda trailer: trailer["model"].update(eps=-1.0), "eps must be finite and positive"),
    (lambda trailer: trailer["loss"].update(tau_init=1000),
     "tau_init must be finite and below 5.8718"),
    (lambda trailer: trailer["run"].update(batch_pairs=1), "a one-pair batch has no negatives"),
], ids=["no-loss", "no-optim", "no-run", "model-field", "run-field", "extra-key",
        "loss-not-object", "lm-heads-zero", "vision-heads-negative", "ff-mult-zero",
        "eps-negative", "tau-init-overflows", "one-pair-batches"])
def test_bad_checkpoint_trailer_is_format_error(tmp_path, dataset, trained, capsys,
                                                corrupt, want):
    arrays, moments, step, configs, vocab = load_checkpoint(trained)
    corrupt(configs)
    bad = tmp_path / "bad.mlrm"
    save_checkpoint(bad, {k: Tensor(a) for k, a in arrays.items()}, moments, step,
                    configs, vocab)
    code = main(["export-embeddings", "--checkpoint", str(bad),
                 "--notes", str(dataset / "notes.jsonl"), "--out", str(tmp_path / "t.mlrm")])
    assert code == 3
    assert want in capsys.readouterr().err
    assert not (tmp_path / "t.mlrm").exists()


def _drop_record(name):
    return lambda records, trailer: records.pop(name)


def _drop_moment(kind, name):
    return _drop_record(f"adam.{kind}.{name}")


def _reshape_moment(kind, name):
    key = f"adam.{kind}.{name}"
    return lambda records, trailer: records.update({key: records[key].ravel()})


def _drop_optimizer(records, trailer):
    for name in [n for n in records if n.startswith("adam.")]:
        records.pop(name)


def _negative_step(records, trailer):
    trailer["step"] = -3
    records["adam.t"] = np.asarray(-3.0)


@pytest.mark.parametrize("corrupt, want", [
    (_drop_record("lm.pos"), "lacks parameter records ['lm.pos']"),
    (_drop_record("loss.tau"), "lacks parameter records ['loss.tau']"),
    (lambda records, trailer: records.update(bogus=records["loss.tau"]),
     "unknown records ['bogus']"),
    (lambda records, trailer: records.update({"lm.pos": records["lm.pos"][1:]}),
     "'lm.pos' has shape"),
    (lambda records, trailer: records.update({"loss.tau": records["loss.tau"].reshape(1)}),
     "'loss.tau' has shape (1,)"),
    (_drop_moment("m", "lm.pos"), "missing optimizer state for 'lm.pos'"),
    (_drop_moment("v", "loss.tau"), "missing optimizer state for 'loss.tau'"),
    (_reshape_moment("m", "lm.pos"), "shape mismatch for 'lm.pos'"),
    (_reshape_moment("v", "lm.pos"), "shape mismatch for 'lm.pos'"),
    (_drop_optimizer, "no optimizer state"),
    (lambda records, trailer: records.update({"adam.m.bogus": records["adam.m.loss.tau"]}),
     "unknown records ['adam.m.bogus']"),
    (lambda records, trailer: records.update({"adam.t": np.asarray(trailer["step"] - 1.0)}),
     "optimizer step 3.0 is not the checkpoint step 4"),
    (_negative_step, "checkpoint step -3 is negative"),
    (lambda records, trailer: trailer.update(step=True), "trailer 'step' is not a int"),
    (lambda records, trailer: trailer["loss"].update(mode="basic"),
     "loss mode 'basic' contradicts model mode 'notellm2'"),
], ids=["no-lm-pos", "no-tau", "extra-record", "short-lm-pos", "tau-not-scalar",
        "no-first-moment", "no-second-moment", "first-moment-shape", "second-moment-shape",
        "no-optimizer-state", "extra-moment", "optimizer-step-not-step", "negative-step",
        "step-bool", "loss-mode-contradicts-model"])
def test_bad_checkpoint_records_are_format_errors(tmp_path, dataset, trained, capsys,
                                                  monkeypatch, write_records, corrupt, want):
    # the records are checked against the model's parameter table; no
    # parameter set is drawn to compare them with
    for module in ("mlrm.model", "mlrm.training"):
        monkeypatch.setattr(f"{module}.init_params",
                            lambda *a: pytest.fail("load_state drew a parameter set"))
    arrays, moments, step, configs, vocab = load_checkpoint(trained)
    records = dict(arrays)
    for kind in ("m", "v"):
        records.update({f"adam.{kind}.{name}": a for name, a in moments[kind].items()})
    records["adam.t"] = np.asarray(float(moments["t"]))
    trailer = dict(configs, step=step, vocab=vocab)
    corrupt(records, trailer)
    bad = tmp_path / "bad.mlrm"
    write_records(bad, records, trailer)
    code = main(["export-embeddings", "--checkpoint", str(bad),
                 "--notes", str(dataset / "notes.jsonl"), "--out", str(tmp_path / "t.emb")])
    assert code == 3
    assert want in capsys.readouterr().err
    assert not (tmp_path / "t.emb").exists()


@pytest.mark.parametrize("t", [float("nan"), 2.5, -3.0])
def test_bad_optimizer_step_is_format_error(tmp_path, dataset, trained, capsys, t):
    arrays, moments, step, configs, vocab = load_checkpoint(trained)
    moments["t"] = t
    bad = tmp_path / "bad.mlrm"
    save_checkpoint(bad, {k: Tensor(a) for k, a in arrays.items()}, moments, step,
                    configs, vocab)
    with pytest.raises(FormatError, match="optimizer step"):
        load_checkpoint(bad)
    assert main(["train", "--resume", str(bad), "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 3
    assert "optimizer step" in capsys.readouterr().err


def test_checkpoint_vocab_size_mismatch_is_format_error(tmp_path, dataset, trained, capsys):
    arrays, moments, step, configs, vocab = load_checkpoint(trained)
    bad = tmp_path / "bad.mlrm"
    save_checkpoint(bad, {k: Tensor(a) for k, a in arrays.items()}, moments, step,
                    configs, vocab[:10])
    code = main(["export-embeddings", "--checkpoint", str(bad),
                 "--notes", str(dataset / "notes.jsonl"), "--out", str(tmp_path / "t.emb")])
    assert code == 3
    assert f"vocabulary holds 10 tokens, the model config needs {len(vocab)}" \
        in capsys.readouterr().err
    assert not (tmp_path / "t.emb").exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_requested_ks_only(tmp_path, dataset, trained, capsys):
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained),
                 "--pool", str(dataset / "notes.jsonl"),
                 "--pairs", str(dataset / "pairs.jsonl"),
                 "--k", "1,5", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "eval.json").read_text())
    assert report["ks"] == [1, 5]
    recall = report["sources"]["multimodal"]["slices"]["all"]["recall"]
    assert sorted(recall) == ["1", "5"]  # JSON object keys are strings
    assert all(v is None or 0.0 <= v <= 1.0 for v in recall.values())
    csv_lines = (out / "eval.csv").read_text().splitlines()
    ks_seen = {line.split(",")[2] for line in csv_lines[1:]}
    assert ks_seen == {"1", "5"}
    assert (out / "manifest.json").is_file()


def test_eval_seed_averaging_shape(tmp_path, dataset, trained, capsys):
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained),
                 "--pool", str(dataset / "notes.jsonl"),
                 "--pairs", str(dataset / "pairs.jsonl"),
                 "--k", "5", "--seeds", "42,43,44", "--max-pairs", "10",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "eval.json").read_text())
    assert report["seeds"] == [42, 43, 44]
    entry = report["sources"]["multimodal"]["slices"]["all"]
    assert entry["n_pairs"] == [10, 10, 10]
    assert len(entry["per_seed"]["5"]) == 3


@pytest.mark.parametrize("max_pairs", ["0", "-1"])
def test_eval_nonpositive_max_pairs_is_config_error(tmp_path, dataset, trained, capsys,
                                                    max_pairs):
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained),
                 "--pool", str(dataset / "notes.jsonl"),
                 "--pairs", str(dataset / "pairs.jsonl"),
                 "--max-pairs", max_pairs, "--out", str(out)]) == 2
    assert "max_pairs" in capsys.readouterr().err
    assert not any((out / name).exists() for name in ("eval.json", "eval.csv", "manifest.json"))


@pytest.mark.parametrize("flag, value", [("--k", "0"), ("--k", "1,-5"), ("--max-pairs", "0")])
def test_eval_rejects_bad_options_before_loading(tmp_path, dataset, trained, capsys,
                                                monkeypatch, flag, value):
    def never(*args, **kwargs):
        raise AssertionError("eval did work before checking its options")
    monkeypatch.setattr(cli, "load_state", never)
    monkeypatch.setattr(cli, "build_table", never)
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained),
                 "--pool", str(dataset / "notes.jsonl"),
                 "--pairs", str(dataset / "pairs.jsonl"),
                 flag, value, "--out", str(out)]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--max-pairs", "5"]])
def test_eval_rejects_negative_seeds_before_loading(tmp_path, dataset, trained, capsys,
                                                   monkeypatch, extra):
    def never(*args, **kwargs):
        raise AssertionError("eval did work before checking its options")
    for name in ("load_state", "load_notes", "load_pairs", "build_table"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained),
                 "--pool", str(dataset / "notes.jsonl"),
                 "--pairs", str(dataset / "pairs.jsonl"),
                 "--seeds", "42,-1", *extra, "--out", str(out)]) == 2
    assert "seeds must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_checkpoint(tmp_path, dataset, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.mlrm"),
                 "--pool", str(dataset / "notes.jsonl"),
                 "--pairs", str(dataset / "pairs.jsonl"),
                 "--out", str(tmp_path / "ev")])
    assert code == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_outputs_and_determinism(tmp_path, dataset, trained, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["analyze", "--checkpoint", str(trained),
                     "--dataset", str(dataset), "--batches", "1",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    header = (first / "saliency.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    report = json.loads((first / "saliency.json").read_text())
    for row in report["layers"]:
        total = row["share_v"] + row["share_t"] + row["share_o"]
        assert total == pytest.approx(1.0, abs=1e-12)
    for name in ("saliency.csv", "saliency.json"):
        assert filecmp.cmp(first / name, second / name, shallow=False)


# sha256 of `mlrm analyze`'s outputs for the tiny 4-step model of each
# variant on the `dataset` fixture, with one BLAS thread (the training bits
# depend on the thread count): a leaner saliency backward must still write
# the same bytes
GOLDEN_ANALYZE = {
    "basic": {
        "saliency.csv": "77a811d66b977c541fee8b946e1d7116b24abf1f12797cf64acd5b6a8ee3d6f6",
        "saliency.json": "2c4f35038736cd17eed77b1279b5b529383a76889b227c5c2ffda8abb95572ef",
    },
    "late_fusion": {
        "saliency.csv": "1817317271b460df83eb19a9b9f0bc1a5e3f7e0f1fa2f6efd92759ac8822de28",
        "saliency.json": "e4745e25bf234faccf81df52f80ba3ec53cb06ef0a942943dfcdc644042006c4",
    },
    "micl": {
        "saliency.csv": "a06f4e122ac83a752121da5557540c0e16331c1553992c66bd11812ff1ef2efb",
        "saliency.json": "8af1e9686853f890d3052d235248c697a790bde7e4da2de19e8b85e68b8e989e",
    },
    "notellm2": {
        "saliency.csv": "ae7c8f8cbec9cfd1a0a8de07839883f0c9b1ddd1254eae5a6cb26de8adfae740",
        "saliency.json": "229bf42ffeec9dfcffcd26d4f40567f6dd33ae9f1708a44276f33c30c5f4374c",
    },
    "omni": {
        "saliency.csv": "2e38e65a89eddfff6e420ae80c140d53fc409787ceea4c9e2e24f85f273fafc1",
        "saliency.json": "d569439905eefd047e5e64ad289804641629f0f23ca9888479d27e5e3a349fdc",
    },
    "only_late_fusion": {
        "saliency.csv": "5e6eff1bd82a258442dd08e70b84f55ba17f392b8d1be1487b62de3f3bd40cfb",
        "saliency.json": "6d05ea359d54318eb618c2910e270754e8d6ccaed8187983488b8eac7fa90c7f",
    },
}

# sha256 of the checkpoint and metrics that the same 4-step training run
# writes, one BLAS thread: a refactor of the forward, the loss or the
# optimizer must leave the trained bytes alone
GOLDEN_TRAIN = {
    "basic": {
        "checkpoint.mlrm": "7c914125ad9955d52ec0a71157a8efa5102c0ddb824c36a453a5c585ff286909",
        "metrics.jsonl": "ae8e38c1bb29c68e03549d5e1467efaff24f25cea4465435252027dbbdc62510",
    },
    "late_fusion": {
        "checkpoint.mlrm": "57c615721d09d175a7cc70b051e3635bdd0e3a1fc63c1f8321c7bfc69e20f9c3",
        "metrics.jsonl": "17abbf993da74772d06bcc9921696dcd75e52870357b929cc7d76e9234379767",
    },
    "micl": {
        "checkpoint.mlrm": "5f8f0404e82b18fe2690ddfc3785ea1a02759f473dedc8a0a9f0f33707abdc35",
        "metrics.jsonl": "1264d3d46fdb416122e8ffcda6ad7b71980f8bc1456972cd344d059a42e10130",
    },
    "notellm2": {
        "checkpoint.mlrm": "ccdf6512017f842887f0a059b95708bc3fd45179d6febdde66d59c70341a47fe",
        "metrics.jsonl": "63de62c78d970896f173285a61a08eb35525a0f6765b6b1683b613211414e9c7",
    },
    "omni": {
        "checkpoint.mlrm": "e43afcfb917e24c449a47b25980be4bdf9d9342e13f6c1e21eaab9b6f0e063db",
        "metrics.jsonl": "0d3dc7331b8cda31fdbf12f62e3cad90f7577d02a8a1850022b1a7a9dce8b376",
    },
    "only_late_fusion": {
        "checkpoint.mlrm": "eeb2a8cc150c37916f53325c52492400915d142fa65be73ebc0e2a012a4a98cb",
        "metrics.jsonl": "2b663209d52a906ee9593d1c80c0ffaa7648eb4612803a42e60d3b0ce426c267",
    },
}


# sha256 of `eval --modality all --bm25` and `export-embeddings` on the
# `dataset` fixture, read with the notellm2 checkpoint above: the tables
# must not depend on how build_table splits or schedules its chunks
GOLDEN_EVAL = {
    "notellm2": {
        "eval.json": "5c97b8fa43e4e75deb1b81c01882b81da5ed399909907f400b9b14592d2b2a17",
        "eval.csv": "d11b897b2f0b25bd28e5eeb991ce353dbd3c3c9265ce4227e98aab0c2c28c2f5",
        "table.emb": "8db2453e0d17a4a94b51f3f600e58a03e2a04cfaef15b92c9ad89f70fc42cecc",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_ANALYZE))
def test_analyze_bytes_match_golden_hashes(tmp_path, dataset, mode):
    run, out = tmp_path / "run", tmp_path / "an"
    checkpoint = str(run / "checkpoint.mlrm")
    commands = [
        ["train", "--config", write_config(tmp_path / "cfg.json"), "--mode", mode,
         "--dataset", str(dataset), "--out", str(run)],
        ["analyze", "--checkpoint", checkpoint, "--dataset", str(dataset),
         "--batches", "2", "--out", str(out)],
    ]
    if mode in GOLDEN_EVAL:
        commands += [
            ["eval", "--checkpoint", checkpoint, "--pool", str(dataset / "notes.jsonl"),
             "--pairs", str(dataset / "pairs.jsonl"), "--modality", "all", "--bm25",
             "--out", str(out)],
            ["export-embeddings", "--checkpoint", checkpoint, "--notes",
             str(dataset / "notes.jsonl"), "--out", str(out / "table.emb")],
        ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    script = ("import sys; from mlrm.cli import main; "
              f"sys.exit(any(main(argv) for argv in {commands!r}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
           for name in GOLDEN_TRAIN[mode]}
    assert got == GOLDEN_TRAIN[mode]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_ANALYZE[mode]}
    assert got == GOLDEN_ANALYZE[mode]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_EVAL.get(mode, ())}
    assert got == GOLDEN_EVAL.get(mode, {})


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_outputs_do_not_depend_on_blas_thread_settings(tmp_path):
    # A multi-threaded BLAS splits the weight-gradient reductions by thread
    # count, so the package pins one thread unless the caller sets one.
    # Unset (all cores) and pinned runs must write the same bytes.
    ds = tmp_path / "ds"
    assert main(["gen-data", "--seed", "42", "--notes", "300", "--out", str(ds)]) == 0
    outputs = {}
    for label, value in (("unset", None), ("one", "1")):
        run, ev = tmp_path / label / "run", tmp_path / label / "eval"
        commands = [
            ["train", "--mode", "notellm2", "--steps", "3", "--dataset", str(ds),
             "--out", str(run)],
            ["eval", "--checkpoint", str(run / "checkpoint.mlrm"), "--pool",
             str(ds / "notes.jsonl"), "--pairs", str(ds / "pairs.jsonl"), "--k", "1,10",
             "--out", str(ev)],
        ]
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(dict.fromkeys(BLAS_VARS, value) if value else {})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        script = ("import sys; from mlrm.cli import main; "
                  f"sys.exit(any(main(argv) for argv in {commands!r}))")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[label] = {p.name: p.read_bytes() for p in
                          (run / "checkpoint.mlrm", run / "metrics.jsonl",
                           ev / "eval.csv", ev / "eval.json")}
    assert outputs["unset"] == outputs["one"]


def test_failed_report_writes_keep_earlier_files(tmp_path, fill_disk):
    def report(share_v):
        return SaliencyReport(mode="notellm2", folded_visual_word=True, n_notes=4, layers=[
            {"layer": 0, "S_v": 1.0, "S_t": 2.0, "S_o": 3.0,
             "share_v": share_v, "share_t": 0.5, "share_o": 0.5 - share_v}])
    csv_path, json_path = tmp_path / "saliency.csv", tmp_path / "saliency.json"
    write_report(report(0.25), csv_path, json_path)
    _write_manifest(tmp_path / "manifest.json", "analyze", seed=1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert json.loads(before["manifest.json"])["seed"] == 1
    fill_disk(0)
    with pytest.raises(OSError, match="No space"):
        write_report(report(0.125), csv_path, json_path)
    with pytest.raises(OSError, match="No space"):
        _write_manifest(tmp_path / "manifest.json", "analyze", seed=2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_analyze_rejects_zero_batches(tmp_path, dataset, trained, capsys, monkeypatch):
    _forbid_loading(monkeypatch, "analyze")
    out = tmp_path / "an"
    code = main(["analyze", "--checkpoint", str(trained),
                 "--dataset", str(dataset), "--batches", "0",
                 "--out", str(out)])
    assert code == 2
    assert "--batches" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_negative_seed(tmp_path, dataset, trained, capsys, monkeypatch):
    _forbid_loading(monkeypatch, "analyze")
    out = tmp_path / "an"
    assert main(["analyze", "--checkpoint", str(trained), "--dataset", str(dataset),
                 "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# export-embeddings / query


@pytest.fixture(scope="session")
def exported(tmp_path_factory, dataset, trained):
    path = tmp_path_factory.mktemp("emb") / "table.mlrm"
    assert main(["export-embeddings", "--checkpoint", str(trained),
                 "--notes", str(dataset / "notes.jsonl"),
                 "--out", str(path)]) == 0
    return path


def test_export_writes_table_and_manifest(exported):
    assert exported.is_file()
    manifest = json.loads((exported.parent / "table.mlrm.manifest.json").read_text())
    assert manifest["command"] == "export-embeddings"
    assert manifest["counts"]["rows"] == 40


def test_query_excludes_self_and_is_sorted(exported, capsys):
    assert main(["query", "--table", str(exported), "--note-id", "3",
                 "--k", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    ids = [int(line.split("\t")[0]) for line in lines]
    scores = [float(line.split("\t")[1]) for line in lines]
    assert 3 not in ids
    assert len(set(ids)) == 5
    assert scores == sorted(scores, reverse=True)
    assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for s in scores)


def test_query_prints_the_scores_it_ranked_by(tmp_path, capsys):
    # at dim 64 a row-by-row dot product differs in the last bits from
    # the table-wide product that ranks the neighbours
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(40, 64))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    path = tmp_path / "table.emb"
    save_table(path, EmbeddingTable(ids=np.arange(40) * 7, vectors=vectors.astype(np.float32)))
    table = load_table(path)
    for note_id in table.ids.tolist():
        assert main(["query", "--table", str(path), "--note-id", str(note_id),
                     "--k", "39"]) == 0
        score = dict(zip(table.ids.tolist(), table.scores(note_id).tolist()))
        printed = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [float(text) for _, text in printed] == [score[int(i)] for i, _ in printed]


def test_query_unknown_id_is_data_error(exported, capsys):
    assert main(["query", "--table", str(exported), "--note-id", "99999"]) == 3
    capsys.readouterr()


def test_query_table_with_oversized_dim_is_format_error(tmp_path, exported, capsys):
    blob = bytearray(exported.read_bytes())
    blob[12:16] = (2**31).to_bytes(4, "little")  # the header's dim
    table = tmp_path / "table.mlrm"
    table.write_bytes(bytes(blob))
    assert main(["query", "--table", str(table), "--note-id", "3"]) == 3
    assert "too large" in capsys.readouterr().err


def test_query_table_with_a_nan_vector_is_data_error(tmp_path, exported, capsys):
    blob = bytearray(exported.read_bytes())
    blob[16 + 8:16 + 12] = b"\x00\x00\xc0\x7f"  # the first row's first entry, a NaN
    table = tmp_path / "table.mlrm"
    table.write_bytes(bytes(blob))
    assert main(["query", "--table", str(table), "--note-id", "3"]) == 3
    assert "NaN or infinite" in capsys.readouterr().err


def test_query_k_exceeding_pool_is_config_error(exported, capsys):
    assert main(["query", "--table", str(exported), "--note-id", "3",
                 "--k", "40"]) == 2
    capsys.readouterr()


def test_export_negative_note_id_is_data_error(tmp_path, dataset, trained, capsys):
    notes = tmp_path / "notes.jsonl"
    rows = (dataset / "notes.jsonl").read_text().splitlines()
    first = json.loads(rows[0])
    first["id"] = -1
    notes.write_text("\n".join([json.dumps(first)] + rows[1:]) + "\n")
    code = main(["export-embeddings", "--checkpoint", str(trained),
                 "--notes", str(notes), "--out", str(tmp_path / "t.mlrm")])
    assert code == 3
    assert "negative note id" in capsys.readouterr().err
    assert not (tmp_path / "t.mlrm").exists()


@pytest.mark.parametrize("field, value", [("title", 5), ("topics", "food")])
def test_export_bad_note_field_type_is_data_error(tmp_path, dataset, trained, capsys,
                                                  field, value):
    notes = tmp_path / "notes.jsonl"
    rows = (dataset / "notes.jsonl").read_text().splitlines()
    first = json.loads(rows[0])
    first[field] = value
    notes.write_text("\n".join([json.dumps(first)] + rows[1:]) + "\n")
    code = main(["export-embeddings", "--checkpoint", str(trained),
                 "--notes", str(notes), "--out", str(tmp_path / "t.mlrm")])
    assert code == 3
    assert field in capsys.readouterr().err
    assert not (tmp_path / "t.mlrm").exists()


def test_export_bad_image_shape_in_the_last_chunk_is_data_error(tmp_path, dataset, trained,
                                                                  capsys):
    # the error comes from a worker thread of build_table's pool
    notes = tmp_path / "notes.jsonl"
    rows = (dataset / "notes.jsonl").read_text().splitlines()
    last = json.loads(rows[-1])
    last["image"] = last["image"][:-1]
    notes.write_text("\n".join(rows[:-1] + [json.dumps(last)]) + "\n")
    code = main(["export-embeddings", "--checkpoint", str(trained),
                 "--notes", str(notes), "--out", str(tmp_path / "t.emb")])
    assert code == 3
    assert f"note {last['id']}: image shape" in capsys.readouterr().err
    assert not (tmp_path / "t.emb").exists()


def test_export_bad_modality(tmp_path, dataset, trained, capsys):
    code = main(["export-embeddings", "--checkpoint", str(trained),
                 "--notes", str(dataset / "notes.jsonl"),
                 "--modality", "audio_only", "--out", str(tmp_path / "t.mlrm")])
    assert code == 2
    capsys.readouterr()
