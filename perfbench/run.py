"""Benchmark of the mlrm pipeline's three user-facing paths.

    python3 perfbench/run.py --workload train-notellm2 --seed 42 --seconds 14 --trace 0

Workloads (each a closed loop with one caller, single-threaded):

  train-notellm2    contrastive training of the notellm2 variant
  eval-pool500      recall@K over a 500-note pool, BM25 baseline, table I/O, top-k
  analyze-notellm2  attention-flow saliency over four batches

The seed picks the synthetic dataset (``generate_dataset`` with every
other setting at its default); model, pool and batch seeds stay at the
CLI defaults. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload untraced, traced and untraced again and reports
per-layer metrics. The last line of stdout is the JSON result; a fuller record,
with machine facts, the checks and (traced) the spans, goes to
``.perfbench_out/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with two BLAS threads the small connector
# matmuls run several times slower on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MLRM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

try:
    import mlrm  # noqa: E402
    from mlrm import data, notes, prompting, retrieval, saliency, training  # noqa: E402
    from mlrm.model import MODALITIES, ModelConfig  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import mlrm from {SRC}: {exc}")
if Path(mlrm.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: mlrm resolved to {mlrm.__file__}, not the checkout's {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("train-notellm2", "eval-pool500", "analyze-notellm2")
SETUP_REPEATS = 3
BATCH_PAIRS = 16
MODEL_SEED = 42          # RunSettings default, as `mlrm train`
POOL_SEED = 42           # select_pool seed used by the eval workload
SALIENCY_SEED = 0        # `mlrm analyze --seed` default
KS = (1, 10, 100)
TOPK = 10
BM25_SAMPLE = 10


@dataclass(frozen=True)
class Size:
    notes: int = 2000
    train_steps: int = 4
    pool: int = 500
    batches: int = 4


FULL = Size()
# The probe runs the same workload on a small dataset with the default
# seed after every run and compares it with reference.json, so every
# run checks the math against values recorded at a known commit.
PROBE = Size(notes=300, train_steps=2, pool=100, batches=1)
PROBE_SEED = 42


@dataclass
class Outcome:
    wall: float                      # the measured operation, seconds
    batch_times: list[float]         # per 32-note model batch
    values: dict                     # outputs compared with reference.json
    # runs the oracles; called after the operation, outside timing and tracing
    verify: Callable[[], list[tuple[str, bool]]]
    detail: dict = field(default_factory=dict)
    marks: list[float] = field(default_factory=list)


@dataclass
class Inputs:
    notes: list
    pairs: list
    checkpoint: Path
    state: object


# ---------------------------------------------------------------------------
# Set-up and the three workloads


def setup(workdir: Path, seed: int, size: Size) -> Inputs:
    """Generate and reload the dataset, then save and reload an init checkpoint."""
    ds = workdir / "dataset"
    data.generate_dataset(data.SyntheticConfig(seed=seed, n_notes=size.notes), ds,
                          data.PairConfig())
    note_list = notes.load_notes(ds / "notes.jsonl")
    pairs = data.load_pairs(ds / "pairs.jsonl")
    vocab = prompting.Vocab.load(ds / "vocab.txt")
    state = training.init_state(
        ModelConfig(vocab_size=len(vocab), mode="notellm2"), training.LossConfig(),
        training.OptimConfig(), training.RunSettings(seed=MODEL_SEED, batch_pairs=BATCH_PAIRS),
        vocab)
    checkpoint = workdir / "init.mlrm"
    training.save_state(state, checkpoint)
    return Inputs(note_list, pairs, checkpoint, training.load_state(checkpoint))


def run_train(inp: Inputs, out: Path, size: Size) -> Outcome:
    state = training.load_state(inp.checkpoint)
    marks: list[float] = []
    start = perf_counter()
    training.train(state, inp.notes, inp.pairs, out_dir=out, steps=size.train_steps,
                   on_step=lambda st, rec: marks.append(perf_counter()))
    wall = perf_counter() - start
    losses = [r["loss"] for r in state.metrics]
    steps = np.diff([start] + marks).tolist()
    return Outcome(
        wall=wall, batch_times=steps, values={"loss": losses},
        verify=lambda: [("train.loss_finite", len(losses) == size.train_steps
                          and all(math.isfinite(x) for x in losses))],
        detail={"train.pairs_per_s": BATCH_PAIRS * len(marks) / wall},
        marks=[start] + marks)


def run_eval(inp: Inputs, out: Path, size: Size) -> Outcome:
    st = inp.state
    start = perf_counter()
    pool, pool_pairs = retrieval.select_pool(inp.notes, inp.pairs, size.pool, seed=POOL_SEED)
    by_id = {n.id: n for n in pool}
    image_cache: dict = {}
    tables = {}
    embedding = perf_counter()
    for modality in MODALITIES:
        tables[modality] = retrieval.build_table(st.params, st.model_cfg, st.vocab, pool,
                                                 modality=modality, image_cache=image_cache)
    embedded = perf_counter()
    # `mlrm eval --bm25` scores both kinds of source in one evaluate call;
    # two calls do the same work and time the dense and BM25 parts apart.
    report = retrieval.evaluate(tables, pool_pairs, by_id, KS)
    dense = perf_counter()
    report["sources"].update(
        retrieval.evaluate({}, pool_pairs, by_id, KS, bm25_pool=pool)["sources"])
    bm25 = perf_counter()
    retrieval.write_eval_report(report, out / "eval.json", out / "eval.csv")
    table_path = out / "multimodal.emb"
    retrieval.save_table(table_path, tables["multimodal"])
    loaded = retrieval.load_table(table_path)
    neighbours = {n.id: retrieval.topk(loaded.vector(n.id), loaded, TOPK, exclude=n.id)
                  for n in pool}
    wall = perf_counter() - start

    embed_s = embedded - embedding
    chunks = len(MODALITIES) * math.ceil(len(pool) / 32)  # build_table's batch_size
    return Outcome(
        wall=wall, batch_times=[embed_s / chunks],
        values=_recall_values(report),
        verify=lambda: _eval_checks(tables, loaded, neighbours, report, pool, pool_pairs),
        detail={"eval.wall_s": wall,
                "eval.embed_notes_per_s": len(MODALITIES) * len(pool) / embed_s,
                "eval.dense_s": dense - embedded, "eval.bm25_s": bm25 - dense})


def run_analyze(inp: Inputs, out: Path, size: Size) -> Outcome:
    st = inp.state
    start = perf_counter()
    report = saliency.saliency_report(
        st.params, st.model_cfg, st.vocab, {n.id: n for n in inp.notes}, inp.pairs,
        st.loss_cfg, batch_pairs=st.run.batch_pairs, seed=SALIENCY_SEED,
        max_notes=size.batches * 2 * st.run.batch_pairs)
    saliency.write_report(report, out / "saliency.csv", out / "saliency.json")
    wall = perf_counter() - start
    return Outcome(
        wall=wall, batch_times=[wall / size.batches],
        values={"shares": [[l["share_v"], l["share_t"], l["share_o"]] for l in report.layers]},
        detail={"analyze.wall_s": wall},
        verify=lambda: [(f"analyze.layer{l['layer']}.shares_sum_to_one",
                         oracles.shares_sum_to_one(l)) for l in report.layers])


OPS = {"train-notellm2": run_train, "eval-pool500": run_eval, "analyze-notellm2": run_analyze}


# ---------------------------------------------------------------------------
# Eval oracles


def _recall_values(report: dict) -> dict:
    out = {}
    for source, entry in sorted(report["sources"].items()):
        out[source] = {kind: {"recall": {str(k): v for k, v in s["recall"].items()},
                              "n_pairs": min(s["n_pairs"])}
                       for kind, s in entry["slices"].items()}
    return {"recall": out}


def _eval_checks(tables, loaded, neighbours, report, pool, pool_pairs) -> list:
    checks = []
    targets: dict[int, list[int]] = {}
    for p in pool_pairs:
        targets.setdefault(p.query, []).append(p.related)
    topk_ok = True
    for modality, table in sorted(tables.items()):
        checks.append((f"eval.{modality}.unit_rows", oracles.unit_rows(table.vectors)))
        ranks = []
        for query, cand, scores in oracles.dense_rankings(table.ids, table.vectors):
            ranks += [oracles.rank_of(t, cand, scores) for t in targets.get(query, ())]
            if modality == "multimodal":
                topk_ok &= oracles.same_order(neighbours[query], cand, scores, oracles.RANK_RTOL)
        got = report["sources"][modality]["slices"]["all"]["recall"]
        checks.append((f"eval.{modality}.recall_brute_force",
                       all(got[k] == oracles.recall(ranks, k) for k in KS)))
    checks.append(("eval.topk_brute_force", topk_ok))
    checks.append(("eval.table_round_trip",
                   np.array_equal(loaded.ids, tables["multimodal"].ids)
                   and np.array_equal(loaded.vectors, tables["multimodal"].vectors)))

    index = retrieval.BM25Index(pool)
    docs = {n.id: _tokens(n) for n in pool}
    score = oracles.bm25_scorer(docs, retrieval.BM25_K1, retrieval.BM25_B)
    by_id = {n.id: n for n in pool}
    rng = np.random.default_rng(0)
    for query in sorted(rng.choice(sorted(docs), BM25_SAMPLE, replace=False).tolist()):
        scores = score(docs[query])
        cand = np.asarray(sorted(i for i in scores if i != query), dtype=np.int64)
        got = index.rank(by_id[query])
        checks.append((f"eval.bm25_formula.{query}",
                       len(got) == len(cand) and oracles.same_order(
                           got, cand, np.asarray([scores[i] for i in cand.tolist()]),
                           oracles.RANK_RTOL)))
    return checks


def _tokens(note) -> list[str]:
    return (prompting.tokenize(note.title) + prompting.tokenize(prompting.join_topics(note.topics))
            + prompting.tokenize(note.content))


# ---------------------------------------------------------------------------
# Reference values


REFERENCE = HERE / "reference.json"
REL_TOL = 1e-6   # admits BLAS rounding; a change to the math moves far more


def matches_reference(workload: str, got: dict, want: dict) -> bool:
    if workload == "train-notellm2":
        return len(got["loss"]) == len(want["loss"]) and all(
            math.isclose(a, b, rel_tol=REL_TOL) for a, b in zip(got["loss"], want["loss"]))
    if workload == "analyze-notellm2":
        return len(got["shares"]) == len(want["shares"]) and all(
            math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
            for g, w in zip(got["shares"], want["shares"]) for a, b in zip(g, w))
    # a recall may move by one pair whose rank sat on a rounding-level tie
    for source, slices in want["recall"].items():
        for kind, w in slices.items():
            g = got["recall"].get(source, {}).get(kind)
            if g is None or g["n_pairs"] != w["n_pairs"]:
                return False
            for k, value in w["recall"].items():
                other = g["recall"].get(k)
                if (value is None) != (other is None):
                    return False
                if value is not None and abs(value - other) > 1.5 / w["n_pairs"]:
                    return False
    return True


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record_reference(workload: str, seed: int, full: dict, probe: dict, facts: dict) -> None:
    ref = load_reference()
    entry = ref.setdefault(workload, {"seeds": {}})
    entry["probe"] = probe
    entry["seeds"][str(seed)] = full
    entry["recorded_at"] = {"git_commit": facts["git_commit"], "src_sha256": facts["src_sha256"]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Machine facts


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlrm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# ---------------------------------------------------------------------------
# Running one benchmark invocation


class Tally:
    """Operations and checks attempted; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.log: list[dict] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.log.append({"check": name, "ok": bool(ok)})
        if not ok:
            self.failed.append(name)
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    def attempt(self, name: str, fn, *args):
        """Run one operation; returns None when it raised."""
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:  # noqa: BLE001 - every failure is counted, then reported
            self.failed.append(name)
            self.log.append({"check": name, "ok": False})
            traceback.print_exc()
            return None
        self.log.append({"check": name, "ok": True})
        return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_outcome(tally: Tally, args, out: Outcome, reference: dict) -> None:
    """Run the oracles on one operation, and the reference when this seed has one."""
    for name, ok in out.verify():
        tally.check(name, ok)
    want = reference.get("seeds", {}).get(str(args.seed))
    if want is not None:
        tally.check(f"reference.seed{args.seed}",
                    matches_reference(args.workload, out.values, want))


def measure(args, work: Path, tally: Tally, reference: dict) -> tuple[dict, dict, list]:
    """Untraced run: repeated set-up, then the operation until time is up."""
    op = OPS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        target = fresh_dir(work / "main")
        start = perf_counter()
        inp = setup(target, args.seed, FULL)
        setups.append(perf_counter() - start)

    outcomes: list[Outcome] = []
    begin = perf_counter()
    while not outcomes or perf_counter() - begin < args.seconds:
        out = tally.attempt(f"{args.workload}.run", op, inp,
                            fresh_dir(work / f"rep{len(outcomes)}"), FULL)
        if out is None:
            break
        outcomes.append(out)
        check_outcome(tally, args, out, reference)

    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (peak_rss, "MB")}
    detail = {"setup_s.all": setups, "reps": len(outcomes)}
    if outcomes:
        metrics["wall_s"] = (statistics.median(o.wall for o in outcomes), "s")
        metrics["batch_s"] = (statistics.median(t for o in outcomes for t in o.batch_times), "s")
        detail["batch_times"] = [t for o in outcomes for t in o.batch_times]
        for key in outcomes[0].detail:
            detail[key] = statistics.median(o.detail[key] for o in outcomes)
        if args.workload == "train-notellm2":
            detail["train.step_s.p50"] = metrics["batch_s"][0]
    return metrics, detail, [o.values for o in outcomes]


def measure_traced(args, work: Path, tally: Tally, reference: dict,
                   result_stem: Path) -> tuple[dict, dict, list]:
    """One traced set-up, then the operation untraced, traced, untraced."""
    op = OPS[args.workload]
    tracer = Tracer(mlrm)
    tracer.install()
    try:
        inp = setup(fresh_dir(work / "main"), args.seed, FULL)
    finally:
        tracer.uninstall()
    runs = {}
    for phase in ("plain-before", "traced", "plain-after"):
        if phase == "traced":
            tracer.run = phase
            tracer.install()
        try:
            runs[phase] = tally.attempt(f"{args.workload}.{phase}", op, inp,
                                        fresh_dir(work / phase), FULL)
        finally:
            tracer.uninstall()
    values = []
    for out in runs.values():
        if out is None:
            continue
        values.append(out.values)
        check_outcome(tally, args, out, reference)
    tracer.write_spans(result_stem.with_suffix(".spans.jsonl"))
    traced = runs["traced"]
    plain = [runs[p].wall for p in ("plain-before", "plain-after") if runs[p] is not None]
    metrics = {}
    if traced is not None:
        layer = tracer.layer_metrics(traced.marks)
        if plain:
            # untraced runs on both sides cancel drift and first-run warm-up
            layer["trace.overhead_frac"] = traced.wall / statistics.mean(plain) - 1.0
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    return metrics, {"not_traced": tracer.missing,
                     "wall_s": {p: o.wall for p, o in runs.items() if o is not None}}, values


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def probe(args, work: Path, tally: Tally, reference: dict) -> dict | None:
    inp = tally.attempt("probe.setup", setup, fresh_dir(work / "probe"), PROBE_SEED, PROBE)
    if inp is None:
        return None
    out = tally.attempt("probe.run", OPS[args.workload], inp,
                        fresh_dir(work / "probe-run"), PROBE)
    if out is None:
        return None
    for name, ok in out.verify():
        tally.check(f"probe.{name}", ok)
    if "probe" in reference and not args.record_reference:
        tally.check("reference.probe",
                    matches_reference(args.workload, out.values, reference["probe"]))
    elif not args.record_reference:
        tally.check("reference.probe_recorded", False)
    return out.values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs in perfbench/reference.json")
    args = parser.parse_args(argv)

    facts = machine_facts(args.seed)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    reference = {} if args.record_reference else load_reference().get(args.workload, {})
    tally = Tally()
    try:
        if args.trace:
            metrics, detail, values = measure_traced(args, work, tally, reference, stem)
        else:
            metrics, detail, values = measure(args, work, tally, reference)
        probe_values = probe(args, work, tally, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics["success_rate"] = (1.0 - len(tally.failed) / tally.attempted, "ratio")
    if args.record_reference and values and probe_values is not None and not tally.failed:
        record_reference(args.workload, args.seed, values[0], probe_values, facts)

    result = {"correct": not tally.failed, "attempted": tally.attempted,
              "failed": len(tally.failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    detail["fail_rate"] = {"failed": len(tally.failed), "attempted": tally.attempted,
                           "base": "operations run plus correctness checks evaluated"}
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "machine": facts, "result": result,
                   "detail": detail, "checks": tally.log, "failed": tally.failed},
                  fh, indent=1)
        fh.write("\n")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:36s} {value:>16.6g} {unit}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
