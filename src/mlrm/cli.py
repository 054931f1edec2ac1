"""Command-line entry point tying the pipeline together.

One executable with subcommands for data generation, training,
evaluation, saliency analysis, embedding export and ad-hoc queries.
Every command validates its inputs before writing anything, emits a
run manifest next to its outputs, and is deterministic given its flags;
manifests are the only place wall-clock timestamps appear.

Exit codes: 0 success, 2 configuration problem, 3 data or I/O problem,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import BLAS_VARS, __version__
from .checkpoint import atomic_write
from .data import (
    PairConfig,
    SyntheticConfig,
    generate_dataset,
    load_pairs,
)
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import MODES, MODALITIES, ModelConfig
from .notes import load_notes
from .prompting import Vocab, note_tokens
from .retrieval import (
    build_table,
    check_eval_options,
    evaluate,
    load_table,
    save_table,
    topk,
    write_eval_report,
)
from .saliency import saliency_report, write_report
from .training import (
    LossConfig,
    OptimConfig,
    RunSettings,
    decode_config,
    init_state,
    load_state,
    save_state,
    train,
)

def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _blas() -> dict:
    # training bytes depend on the BLAS build and its thread settings
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"name": name, "threads": {var: os.environ.get(var) for var in BLAS_VARS}}


def _write_manifest(path, command, *, config=None, seed=None,
                    inputs=None, outputs=None, counts=None, started=None):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": inputs or {},
        "outputs": outputs or {},
        "version": __version__,
        "blas": _blas(),
        "started": started,
        "finished": _now(),
    }
    if counts is not None:
        manifest["counts"] = counts
    with atomic_write(path) as fh:
        fh.write((json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return path


def _require_file(path, what) -> str:
    if not os.path.isfile(path):
        raise DataError(f"{what} not found: {path}")
    return path


def _dataset_paths(directory) -> dict:
    if not os.path.isdir(directory):
        raise DataError(f"dataset directory not found: {directory}")
    return {name: _require_file(os.path.join(directory, name), name)
            for name in ("notes.jsonl", "pairs.jsonl", "vocab.txt")}


def _check_vocab(path, vocab: Vocab) -> None:
    """DataError unless the dataset vocabulary at ``path`` is the
    checkpoint's line for line: another dataset's words would be looked
    up in the wrong table."""
    tokens = Vocab.load(path).tokens
    for line, (ours, saved) in enumerate(itertools.zip_longest(tokens, vocab.tokens), 1):
        if ours != saved:
            shown = [repr(t) if t is not None else "nothing" for t in (ours, saved)]
            raise DataError(f"{path} is not the checkpoint's vocabulary: line {line} holds "
                            f"{shown[0]}, the checkpoint's {shown[1]}")


def _check_note_tokens(notes, vocab: Vocab) -> None:
    """DataError naming the first note with a token the checkpoint's
    vocabulary lacks: another dataset's words would read as <UNK>."""
    for note in notes:
        for token in note_tokens(note):
            if token not in vocab.index:
                raise DataError(f"note {note.id} has the token {token!r}, which is not "
                                f"in the checkpoint's vocabulary")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    _require_file(path, "config file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(blob) - {"model", "loss", "optim", "run"}
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}")
    for name, section in blob.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: config section {name!r} must be a JSON object")
    return blob


def _merged(section: dict | None, **overrides) -> dict:
    out = dict(section or {})
    for key, value in overrides.items():
        if value is not None:
            out[key] = value
    return out


def _int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_data(args) -> int:
    started = _now()
    cfg = SyntheticConfig(seed=args.seed, n_notes=args.notes,
                          n_clusters=args.clusters, rho=args.rho)
    os.makedirs(args.out, exist_ok=True)
    files = generate_dataset(cfg, args.out, PairConfig())
    counts = {}
    for key, name in (("notes", "notes.jsonl"), ("events", "events.jsonl"),
                      ("pairs", "pairs.jsonl")):
        with open(files[name], "r", encoding="utf-8") as fh:
            counts[key] = sum(1 for _ in fh)
    _write_manifest(os.path.join(args.out, "manifest.json"), "gen-data", seed=args.seed,
                    outputs={k: os.path.basename(v) for k, v in files.items()},
                    counts=counts, started=started)
    print(f"wrote {counts['notes']} notes, {counts['events']} events, "
          f"{counts['pairs']} pairs to {args.out}")
    return 0


def _fresh_state(args, file_cfg, vocab_path):
    # only the model section needs the vocabulary; the rest is checked first
    loss_cfg = decode_config(LossConfig, _merged(file_cfg.get("loss")), "loss")
    optim_cfg = decode_config(OptimConfig, _merged(
        file_cfg.get("optim"), steps=args.steps, peak_lr=args.lr), "optim")
    run = decode_config(RunSettings, _merged(
        file_cfg.get("run"), seed=args.seed, batch_pairs=args.batch_pairs), "run")
    vocab = Vocab.load(vocab_path)
    model_section = _merged(file_cfg.get("model"), mode=args.mode)
    stated = model_section.get("vocab_size")
    if stated is not None and stated != len(vocab):
        raise ConfigError(f"config says vocab_size={stated} but the dataset "
                          f"vocabulary has {len(vocab)} tokens")
    model_section["vocab_size"] = len(vocab)
    model_cfg = decode_config(ModelConfig, model_section, "model")
    return init_state(model_cfg, loss_cfg, optim_cfg, run, vocab)


def cmd_train(args) -> int:
    started = _now()
    if args.checkpoint_every < 0:
        raise ConfigError("--checkpoint-every must be 0 (off) or positive")
    file_cfg = _load_config_file(args.config)
    paths = _dataset_paths(args.dataset)
    if args.resume is not None:
        # the checkpoint's saved configs are authoritative on resume
        clashes = [name for name, value in
                   (("--config", args.config), ("--steps", args.steps),
                    ("--lr", args.lr), ("--batch-pairs", args.batch_pairs),
                    ("--seed", args.seed)) if value is not None]
        if clashes:
            raise ConfigError(f"--resume takes its settings from the checkpoint; "
                              f"drop {', '.join(clashes)}")
        _require_file(args.resume, "checkpoint")
        state = load_state(args.resume)
        _check_vocab(paths["vocab.txt"], state.vocab)
        if args.mode is not None and args.mode != state.model_cfg.mode:
            raise ConfigError(f"--mode {args.mode} contradicts the checkpoint's "
                              f"mode {state.model_cfg.mode}")
        if state.step >= state.optim_cfg.steps:
            raise ConfigError(f"nothing to train: {args.resume} is at step {state.step}, "
                              f"the end of its schedule")
    else:
        state = _fresh_state(args, file_cfg, paths["vocab.txt"])
    notes = load_notes(paths["notes.jsonl"])
    pairs = load_pairs(paths["pairs.jsonl"])

    os.makedirs(args.out, exist_ok=True)
    every = args.checkpoint_every
    periodic_names = []

    def periodic(st, record):
        if every and record["step"] % every == 0 and record["step"] < st.optim_cfg.steps:
            name = f"checkpoint-{record['step']:06d}.mlrm"
            save_state(st, os.path.join(args.out, name))
            periodic_names.append(name)

    state = train(state, notes, pairs, out_dir=args.out, on_step=periodic)
    ckpt_path = os.path.join(args.out, "checkpoint.mlrm")
    _write_manifest(os.path.join(args.out, "manifest.json"), "train",
                    config=args.config, seed=state.run.seed,
                    inputs={"dataset": args.dataset,
                            "resume": args.resume,
                            "notes_sha256": _sha256(paths["notes.jsonl"])},
                    outputs={"checkpoint": "checkpoint.mlrm",
                             "metrics": "metrics.jsonl",
                             "periodic": periodic_names},
                    counts={"steps": state.step}, started=started)
    print(f"trained {state.model_cfg.mode} to step {state.step}; "
          f"final loss {state.metrics[-1]['loss']:.6f}; checkpoint at {ckpt_path}")
    return 0


def _modalities(raw: str) -> list[str]:
    if raw == "all":
        return list(MODALITIES)
    values = [m.strip() for m in raw.split(",") if m.strip()]
    for m in values:
        if m not in MODALITIES:
            raise ConfigError(f"unknown modality {m!r}, expected one of "
                              f"{MODALITIES} or 'all'")
    if not values:
        raise ConfigError("--modality must name at least one modality")
    return values


def cmd_eval(args) -> int:
    started = _now()
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.pool, "pool notes file")
    _require_file(args.pairs, "pairs file")
    ks = _int_list(args.k, "--k")
    seeds = _int_list(args.seeds, "--seeds")
    check_eval_options(ks, args.max_pairs, seeds)
    modalities = _modalities(args.modality)
    state = load_state(args.checkpoint)
    pool_notes = load_notes(args.pool)
    _check_note_tokens(pool_notes, state.vocab)
    pairs = load_pairs(args.pairs)
    by_id = {n.id: n for n in pool_notes}
    pairs = [p for p in pairs if p.query in by_id and p.related in by_id]
    if not pairs:
        raise DataError("no evaluation pairs fall inside the note pool")

    ckpt_hash = _sha256(args.checkpoint)
    image_cache: dict = {}
    tables = {}
    for modality in modalities:
        tables[modality] = build_table(
            state.params, state.model_cfg, state.vocab, pool_notes,
            modality=modality, image_cache=image_cache,
            provenance={"checkpoint_sha256": ckpt_hash})
    report = evaluate(tables, pairs, by_id, ks,
                      bm25_pool=pool_notes if args.bm25 else None,
                      seeds=seeds, max_pairs=args.max_pairs)
    os.makedirs(args.out, exist_ok=True)
    write_eval_report(report, os.path.join(args.out, "eval.json"),
                      os.path.join(args.out, "eval.csv"))
    _write_manifest(os.path.join(args.out, "manifest.json"), "eval", seed=seeds[0],
                    inputs={"checkpoint": args.checkpoint,
                            "checkpoint_sha256": ckpt_hash,
                            "pool": args.pool, "pairs": args.pairs},
                    outputs={"report_json": "eval.json", "report_csv": "eval.csv"},
                    counts={"pool": len(pool_notes), "pairs": len(pairs)},
                    started=started)
    shown = report["sources"][modalities[0]]["slices"]["all"]["recall"]
    summary = ", ".join(f"R@{k}={shown[k]:.4f}" for k in ks)
    print(f"{modalities[0]} over {len(pairs)} pairs: {summary}")
    return 0


def cmd_analyze(args) -> int:
    started = _now()
    if args.batches < 1:
        raise ConfigError("--batches must be at least 1")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    _require_file(args.checkpoint, "checkpoint")
    paths = _dataset_paths(args.dataset)
    state = load_state(args.checkpoint)
    _check_vocab(paths["vocab.txt"], state.vocab)
    notes = load_notes(paths["notes.jsonl"])
    pairs = load_pairs(paths["pairs.jsonl"])
    batch_pairs = state.run.batch_pairs
    report = saliency_report(
        state.params, state.model_cfg, state.vocab, {n.id: n for n in notes},
        pairs, state.loss_cfg, batch_pairs=batch_pairs, seed=args.seed,
        max_notes=args.batches * 2 * batch_pairs)
    os.makedirs(args.out, exist_ok=True)
    write_report(report, os.path.join(args.out, "saliency.csv"),
                 os.path.join(args.out, "saliency.json"))
    _write_manifest(os.path.join(args.out, "manifest.json"), "analyze", seed=args.seed,
                    inputs={"checkpoint": args.checkpoint, "dataset": args.dataset},
                    outputs={"csv": "saliency.csv", "json": "saliency.json"},
                    counts={"notes": report.n_notes}, started=started)
    top = report.layers[-1]
    print(f"{report.mode}: layer {top['layer']} shares "
          f"v={top['share_v']:.4f} t={top['share_t']:.4f} o={top['share_o']:.4f} "
          f"over {report.n_notes} notes")
    return 0


def cmd_export_embeddings(args) -> int:
    started = _now()
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.notes, "notes file")
    if args.modality not in MODALITIES:
        raise ConfigError(f"unknown modality {args.modality!r}, expected one of "
                          f"{MODALITIES}")
    state = load_state(args.checkpoint)
    notes = load_notes(args.notes)
    _check_note_tokens(notes, state.vocab)
    table = build_table(state.params, state.model_cfg, state.vocab, notes,
                        modality=args.modality,
                        provenance={"checkpoint_sha256": _sha256(args.checkpoint)})
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    save_table(args.out, table)
    _write_manifest(args.out + ".manifest.json", "export-embeddings", seed=None,
                    inputs={"checkpoint": args.checkpoint, "notes": args.notes},
                    outputs={"table": os.path.basename(args.out)},
                    counts={"rows": len(table)}, started=started)
    print(f"wrote {len(table)} embeddings of dim {table.dim} to {args.out}")
    return 0


def cmd_query(args) -> int:
    _require_file(args.table, "embedding table")
    table = load_table(args.table)
    vec = table.vector(args.note_id)  # DataError when absent
    ids = topk(vec, table, args.k, exclude=args.note_id)
    q = vec.astype(np.float64)
    for nid in ids.tolist():
        score = float(table.vector(nid).astype(np.float64) @ q)
        print(f"{nid}\t{score:.17g}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlrm",
        description="Multimodal note representation pipeline: synthetic data, "
                    "contrastive training, retrieval evaluation and attention "
                    "flow analysis.")
    parser.add_argument("--version", action="version", version=f"mlrm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--notes", type=int, default=2000)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--rho", type=float, default=1.0,
                   help="probability an image matches its note's text cluster")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a variant on a dataset directory")
    p.add_argument("--config", help="JSON config with sections model/loss/optim/run")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--dataset", required=True, help="dataset directory from gen-data")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float, dest="lr")
    p.add_argument("--batch-pairs", type=int, dest="batch_pairs")
    p.add_argument("--checkpoint-every", type=int, default=100,
                   dest="checkpoint_every")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recall@K retrieval evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pool", required=True, help="notes.jsonl with the candidate pool")
    p.add_argument("--pairs", required=True, help="pairs.jsonl with eval ground truth")
    p.add_argument("--k", default="1,10,100")
    p.add_argument("--modality", default="multimodal",
                   help="comma-separated subset of "
                        "multimodal,image_only,text_only or 'all'")
    p.add_argument("--seeds", default="42")
    p.add_argument("--max-pairs", type=int, dest="max_pairs")
    p.add_argument("--bm25", action="store_true", help="add the BM25 text baseline")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="attention saliency decomposition")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export-embeddings", help="write an embedding table file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--notes", required=True)
    p.add_argument("--modality", default="multimodal")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("query", help="print the top-k neighbors of a note")
    p.add_argument("--table", required=True)
    p.add_argument("--note-id", type=int, required=True, dest="note_id")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FormatError, OSError) as exc:
        # OSError: a file that cannot be read or written (full disk,
        # missing permission)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
