"""Child processes of the benchmark, one fresh interpreter per phase.

    python3 bench/worker.py generate|fit|eval SPEC.json

Each reads its settings from SPEC.json and writes ``<phase>.result.json``
next to it.  ``generate`` writes the seeded source and target networks as
dataset directories.  ``fit`` trains on them until its time is up and leaves
the last checkpoint and target probabilities.  ``eval`` calls
``crossnode eval`` on that checkpoint until its time is up.  Every fit and
eval call is one operation; its outputs are checked and a failure is
recorded, not raised.  The first eval call is a warm-up: checked and counted
but left out of the timings.  Each operation records the peak RSS of this
process so far; after the first, that is the peak of a fresh process that ran
the workload once.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from crossnode import (  # noqa: E402
    SynthConfig,
    TrainConfig,
    cli,
    fit,
    generate_synthetic_pair,
    load_network,
    save_model,
    save_network,
    validate_pair,
)
from crossnode.metrics import decide_labels, f1_scores  # noqa: E402
from crossnode.train import batches_per_epoch  # noqa: E402
from tracer import LAYERS, PROBE, Tracer  # noqa: E402

CLASSES = 5
ATTRS = 600
SHIFT = 0.6
MEAN_DEGREE = 24.0
ROW_SUM_TOL = 1e-9


def synth_config(nodes: int, homophily: float, seed: int) -> SynthConfig:
    """Block-model settings with the given mean degree and edge homophily."""
    block = nodes / CLASSES
    return SynthConfig(
        nodes=nodes,
        classes=CLASSES,
        attrs=ATTRS,
        p_intra=homophily * MEAN_DEGREE / (block - 1),
        p_inter=(1.0 - homophily) * MEAN_DEGREE / (nodes - block),
        shift=SHIFT,
        seed=seed,
    )


def generate(spec: dict, work: Path) -> dict:
    h, seed = spec["homophily"], spec["seed"]
    source_pair = generate_synthetic_pair(synth_config(spec["source_nodes"], h, seed))
    target_pair = source_pair
    if spec["target_nodes"] != spec["source_nodes"]:
        target_pair = generate_synthetic_pair(synth_config(spec["target_nodes"], h, seed))
    save_network(source_pair.source, work / "source")
    save_network(target_pair.target, work / "target")
    return {}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise RuntimeError(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    return env


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def check_probs(probs: np.ndarray, rows: int) -> str | None:
    if probs.shape != (rows, CLASSES):
        return f"probabilities have shape {probs.shape}, expected {(rows, CLASSES)}"
    if not np.isfinite(probs).all() or (probs < 0).any():
        return "probabilities are not finite and nonnegative"
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOL:
        return f"softmax rows sum to 1 only within {worst:.3g}"
    return None


def scores(probs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Micro/Macro-F1 of argmax decisions."""
    m = f1_scores(decide_labels(probs, "multiclass"), labels)
    return m.micro_f1, m.macro_f1


def check_f1(f1: tuple[float, float], probs: np.ndarray, labels: np.ndarray) -> str | None:
    """With one label per node, micro-F1 equals accuracy."""
    accuracy = float((probs.argmax(axis=1) == labels.argmax(axis=1)).mean())
    if abs(f1[0] - accuracy) > 1e-12 or not 0.0 <= f1[1] <= 1.0:
        return f"F1 {f1} does not match accuracy {accuracy}"
    return None


def more(ops: list, spec: dict, start: float) -> bool:
    """Whether to start another operation: until the minimum count is done,
    then while one more of average length still ends within the budget."""
    if len(ops) < spec["min_ops"]:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (len(ops) + 1) / len(ops) <= spec["seconds"]


def check_fit(result, pair, steps: int, reference: np.ndarray | None) -> str | None:
    if len(result.trace) != steps:
        return f"ran {len(result.trace)} iterations, expected {steps}"
    losses = [row[k] for row in result.trace for k in ("loss_y", "loss_f", "loss_d")]
    if not all(math.isfinite(v) for v in losses):
        return "non-finite loss in the trace"
    for emb in (result.source_embeddings, result.target_embeddings):
        if not np.isfinite(emb).all():
            return "non-finite embeddings"
    error = check_probs(result.target_probs, pair.target.num_nodes)
    if error is None and reference is not None:
        if not np.array_equal(result.target_probs, reference):
            error = "a repeated fit with the same seed gave other probabilities"
    return error


def fit_phase(spec: dict, work: Path) -> dict:
    pair = validate_pair(load_network(work / "source"), load_network(work / "target"))
    cfg = TrainConfig(epochs=spec["epochs"], seed=spec["seed"])
    steps = cfg.epochs * batches_per_epoch(
        pair.source.num_nodes, pair.target.num_nodes, cfg.batch_size
    )
    tracer, ops, reference, last = Tracer(), [], None, None
    start = time.perf_counter()
    while more(ops, spec, start):
        # A traced run alternates untraced and traced fits, which gives the
        # tracing overhead on the same inputs.
        op = {"traced": spec["trace"] and len(ops) % 2 == 1, "warmup": False, "error": None}
        result = None
        # Leave no garbage of the previous fit for this one to collect.
        gc.collect()
        with tracer.patched(LAYERS if op["traced"] else PROBE), tracer.span("fit") as root:
            op["root"] = root
            try:
                result = fit(pair, cfg)
            except Exception:
                op["error"] = traceback.format_exc()
        if result is not None:
            op["error"] = check_fit(result, pair, steps, reference)
            if op["error"] is None:
                f1 = scores(result.target_probs, pair.target.labels)
                op["error"] = check_f1(f1, result.target_probs, pair.target.labels)
                op["micro_f1"], op["macro_f1"] = f1
            if op["error"] is None:
                reference, last = result.target_probs, result
        op["peak_rss_mb"] = peak_rss_mb()
        ops.append(op)
    if last is not None:
        save_model(work / "checkpoint.json", last)
        np.save(work / "target_probs.npy", last.target_probs)
    return phase_result(tracer, ops)


def check_eval(code, out: Path, printed: str, expected: np.ndarray, labels: np.ndarray):
    """Error text or None, and the F1 pair that metrics.json reports."""
    if code != 0:
        return f"crossnode eval exited with {code}", None
    if not (out / "metrics.json").is_file() or not (out / "predictions.tsv").is_file():
        return "metrics.json or predictions.tsv is missing", None
    reported = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    f1 = (reported["micro_f1"], reported["macro_f1"])
    table = np.loadtxt(out / "predictions.tsv", comments="#", ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(len(expected))):
        return "predictions.tsv does not list every node in order", f1
    probs = table[:, 1:]
    error = check_probs(probs, len(expected))
    if error:
        return error, f1
    if not np.allclose(probs, expected, rtol=1e-9, atol=1e-12):
        return "eval probabilities differ from those of the fit", f1
    if not np.allclose(scores(probs, labels), f1, rtol=0.0, atol=1e-12):
        return "metrics.json F1 does not match the dumped predictions", f1
    error = check_f1(f1, probs, labels)
    if error:
        return error, f1
    if f"micro_f1={f1[0]:.4f}" not in printed:
        return "eval did not print its micro-F1", f1
    return None, f1


def eval_phase(spec: dict, work: Path) -> dict:
    target, out = work / "target", work / "eval"
    labels = load_network(target).labels
    expected = np.load(work / "target_probs.npy")
    argv = [
        "eval",
        "--checkpoint", str(work / "checkpoint.json"),
        "--target", str(target),
        "--out", str(out),
        "--dump-predictions",
    ]
    tracer, ops = Tracer(), []
    start = time.perf_counter()
    while more(ops, spec, start):
        op = {"traced": spec["trace"], "warmup": not ops, "error": None}
        for name in ("metrics.json", "predictions.tsv", "config.json"):
            (out / name).unlink(missing_ok=True)
        printed, code = io.StringIO(), None
        # A fresh `crossnode eval` process starts with no garbage to collect.
        gc.collect()
        with tracer.patched(LAYERS if op["traced"] else []), tracer.span("cli.run") as root:
            op["root"] = root
            try:
                with contextlib.redirect_stdout(printed):
                    code = cli.run(argv)
            except Exception:
                op["error"] = traceback.format_exc()
        if op["error"] is None:
            try:
                op["error"], f1 = check_eval(code, out, printed.getvalue(), expected, labels)
            except (KeyError, ValueError, OSError):
                op["error"], f1 = traceback.format_exc(), None
            if f1 is not None:
                op["micro_f1"], op["macro_f1"] = f1
        op["peak_rss_mb"] = peak_rss_mb()
        ops.append(op)
    return phase_result(tracer, ops)


def phase_result(tracer: Tracer, ops: list[dict]) -> dict:
    fired = {span[0] for span in tracer.spans}
    return {
        "ops": ops,
        "spans": tracer.spans,
        "absent": sorted(tracer.absent),
        "never_fired": sorted({name for name, *_ in LAYERS} - fired),
    }


PHASES = {"generate": generate, "fit": fit_phase, "eval": eval_phase}


def main(argv: list[str]) -> None:
    phase, spec_path = argv[0], Path(argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result = PHASES[phase](spec, spec_path.parent)
    result["env"] = environment()
    (spec_path.parent / f"{phase}.result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
