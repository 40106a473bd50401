"""crossnode benchmark: training, set-up and evaluation, end to end and by layer.

    python3 bench/run.py --workload train_n2000 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--smoke] [--seed 0] [--seconds 20]

Run from the repository root.  A run generates its inputs from ``--seed`` in
a process of their own, then runs the workload in fresh processes: a fit
phase (``crossnode.fit``) and an eval phase (sequential ``crossnode eval``
calls through ``crossnode.cli.run``, a closed loop with one client) on the
checkpoint and target the fit phase leaves.  The workload's main phase gets
``--seconds``; the other runs its minimum number of operations.  Every fit
and eval call is checked and counted; the first eval call of a phase warms
up and is left out of the timings.

It prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0`` and its ``per_layer`` metrics
with ``--trace 1``.  A traced run also writes its spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  ``--all`` runs every
workload untraced and traced; ``--smoke`` shrinks the inputs to toy sizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0


@dataclasses.dataclass(frozen=True)
class Workload:
    source_nodes: int
    target_nodes: int
    homophily: float
    epochs: int
    main: str  # "fit" or "eval": the phase that gets --seconds
    min_fits: int
    min_evals: int  # the warm-up call included


WORKLOADS = {
    # Step layers dominate; the 1234-node target cycles within each epoch.
    "train_n2000": Workload(2000, 1234, 0.8, 20, "fit", 2, 11),
    # Proximity set-up dominates and sets peak memory; low homophily makes
    # source label-masking drop most batch-weight entries.
    "prepare_n8000": Workload(8000, 8000, 0.4, 1, "fit", 2, 4),
    # No tape: checkpoint load, parsing, full-graph proximity and inference.
    "eval_cli": Workload(2000, 2000, 0.8, 1, "eval", 9, 11),
}
SMOKE_NODES = {"train_n2000": (150, 123), "prepare_n8000": (200, 200), "eval_cli": (150, 150)}

# Per-layer times per operation: (span, "total" or "self").  Self time is
# used where a child span would otherwise be counted twice.
LAYER_TIMES = {
    "proximity.transition_s": ("proximity.transition", "total"),
    "proximity.aggregate_s": ("proximity.aggregate", "total"),
    "proximity.ppmi_s": ("proximity.ppmi", "total"),
    "encoder.neighbor_aggregate_s": ("encoder.neighbor_aggregate", "total"),
    "train.assemble_s": ("train.assemble", "total"),
    "proximity.batch_weights_s": ("proximity.batch_weights", "total"),
    "train.forward_s": ("train.forward", "total"),
    "encoder.encode_s": ("encoder.encode", "total"),
    "classifier.propagate_s": ("classifier.propagate", "total"),
    "adversary.discriminator_s": ("adversary.discriminator", "total"),
    "nn.backward_s": ("nn.backward", "total"),
    "adversary.reversal_s": ("adversary.reversal", "self"),
    "nn.sgd_s": ("nn.sgd", "total"),
    "train.step_self_s": ("train.step", "self"),
    "train.embed_s": ("train.embed", "total"),
    "train.predict_s": ("train.predict", "self"),
    "nn.load_checkpoint_s": ("nn.load_checkpoint", "total"),
    "graphs.load_network_s": ("graphs.load_network", "total"),
    "metrics.f1_s": ("metrics.f1", "total"),
    "cli.eval_self_s": ("cli.run", "self"),
}
# Per-layer work counts per operation: (span, count key).
LAYER_COUNTS = {
    "proximity.aggregate_nnz": ("proximity.aggregate", "nnz"),
    "proximity.ppmi_nnz": ("proximity.ppmi", "nnz"),
    "train.batch_dup_ids": ("train.assemble", "dup_ids"),
    "train.batch_empty_rows": ("train.assemble", "empty_rows"),
    "nn.checkpoint_bytes": ("nn.load_checkpoint", "bytes"),
    "graphs.attr_triplets": ("graphs.load_network", "attr_triplets"),
}
ROOT_SPAN = {"fit": "fit", "eval": "cli.run"}


def child(phase: str, spec: dict, work: Path, deadline: float) -> dict:
    """Run one phase in a fresh interpreter and return its result file."""
    spec_path = work / f"{phase}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # One BLAS thread: on a shared machine a second one makes the step rate
    # jump between two levels from fit to fit.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), phase, str(spec_path)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{phase} phase ran past the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase exited with {proc.returncode}")
    return json.loads((work / f"{phase}.result.json").read_text(encoding="utf-8"))


def ok_roots(result: dict, traced: bool) -> list[int]:
    return [
        op["root"]
        for op in result["ops"]
        if op["error"] is None and op["traced"] == traced and not op["warmup"]
    ]


def duration(span: list) -> float:
    return span[2] - span[1]


def fit_timings(spans: list, root: int) -> dict:
    steps = [s for s in spans if s[3] == root and s[0] == "train.step"]
    if not steps:
        raise RuntimeError("no train.step span fired inside fit")
    return {
        "fit_s": duration(spans[root]),
        "setup_s": steps[0][1] - spans[root][1],
        "train_steps_per_s": len(steps) / (steps[-1][2] - steps[0][1]),
    }


def layer_totals(spans: list, roots: list[int]) -> dict:
    """Per span name: total and self time, calls, counts and durations, over
    the spans under the given roots (roots included)."""
    roots = set(roots)
    root_of, child_time = {}, defaultdict(float)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        root_of[i] = i if i in roots else root_of.get(parent)
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        if root_of[i] is None:
            continue
        t = totals.setdefault(
            name, {"total": 0.0, "self": 0.0, "calls": 0, "counts": Counter(), "durations": []}
        )
        t["total"] += end - start
        t["self"] += end - start - child_time[i]
        t["calls"] += 1
        t["counts"].update(counts or {})
        t["durations"].append(end - start)
    return totals


def per_layer(results: dict, wl: Workload) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced operations of each phase, and the
    names of spans that never fired.  A layer is reported per operation of
    the main phase, or of the other phase if it runs only there."""
    phases = [wl.main, "eval" if wl.main == "fit" else "fit"]
    totals = {p: layer_totals(results[p]["spans"], ok_roots(results[p], True)) for p in phases}
    ops = {p: max(1, len(ok_roots(results[p], True))) for p in phases}

    def first(span):
        for p in phases:
            if span in totals[p]:
                return totals[p][span], ops[p]
        return None, 1

    values = {}
    for metric, (span, field) in LAYER_TIMES.items():
        t, n = first(span)
        values[metric] = t[field] / n if t else 0.0
    for metric, (span, key) in LAYER_COUNTS.items():
        t, n = first(span)
        values[metric] = t["counts"][key] / n if t else 0.0

    agg, _ = first("proximity.aggregate")
    ppmi, _ = first("proximity.ppmi")
    values["proximity.ppmi_kept_ratio"] = (
        ppmi["counts"]["nnz"] / agg["counts"]["nnz"] if agg and ppmi else 0.0
    )
    fit = totals["fit"]
    step = fit.get("train.step")
    backward = fit.get("nn.backward")
    steps = step["calls"] if step else 0
    grad_bytes = backward["counts"]["grad_bytes"] if backward else 0
    values["nn.backward_calls_per_step"] = backward["calls"] / steps if backward and steps else 0.0
    values["nn.grad_bytes_per_step"] = grad_bytes / steps if steps else 0.0
    values["nn.param_grad_share"] = (
        backward["counts"]["param_grad_bytes"] / grad_bytes if grad_bytes else 0.0
    )
    if step and len(step["durations"]) >= 2:
        pct = statistics.quantiles(step["durations"], n=100)
        values["train.step_ms_p50"] = 1e3 * pct[49]
        values["train.step_ms_p98"] = 1e3 * pct[97]
    else:
        values["train.step_ms_p50"] = values["train.step_ms_p98"] = 0.0

    main_root = totals[wl.main].get(ROOT_SPAN[wl.main])
    values["trace.uncovered_s"] = main_root["self"] / ops[wl.main] if main_root else 0.0
    fits = results["fit"]
    traced = [fit_timings(fits["spans"], r)["fit_s"] for r in ok_roots(fits, True)]
    plain = [fit_timings(fits["spans"], r)["fit_s"] for r in ok_roots(fits, False)]
    values["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
    )
    never = set(results["fit"]["never_fired"]) & set(results["eval"]["never_fired"])
    return values, sorted(never)


def end_to_end(results: dict, wl: Workload) -> tuple[dict, dict]:
    """End-to-end metrics from untraced operations, and their sample counts."""
    fits = results["fit"]
    timings = [fit_timings(fits["spans"], r) for r in ok_roots(fits, False)]
    evals = results["eval"]
    eval_s = [duration(evals["spans"][r]) for r in ok_roots(evals, False)]
    if not timings or not eval_s:
        raise RuntimeError("no untraced fit or eval call succeeded")
    values = {
        key: statistics.median(t[key] for t in timings)
        for key in ("setup_s", "fit_s", "train_steps_per_s")
    }
    values["eval_s_p50"] = statistics.median(eval_s)
    # Later operations in the same process also hold the results of earlier
    # ones, which moves the high-water mark by tens of MB from run to run.
    values["peak_rss_mb"] = results[wl.main]["ops"][0]["peak_rss_mb"]
    return values, {"fits": len(timings), "eval calls": len(eval_s)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    wl = WORKLOADS[name]
    if smoke:
        src, tgt = SMOKE_NODES[name]
        wl = dataclasses.replace(wl, source_nodes=src, target_nodes=tgt, epochs=1)
    deadline = time.monotonic() + RUN_LIMIT_S
    base = {
        "seed": seed,
        "trace": trace,
        "source_nodes": wl.source_nodes,
        "target_nodes": wl.target_nodes,
        "homophily": wl.homophily,
        "epochs": wl.epochs,
    }
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-{seed}-", dir=WORK) as tmp:
        work = Path(tmp)
        child("generate", base, work, deadline)
        results = {}
        for phase, min_ops in (("fit", wl.min_fits), ("eval", wl.min_evals)):
            budget = seconds if phase == wl.main else 0.0
            spec = {**base, "seconds": budget, "min_ops": min_ops}
            results[phase] = child(phase, spec, work, deadline)
    ops = results["fit"]["ops"] + results["eval"]["ops"]
    failed = [op for op in ops if op["error"] is not None]
    f1_ops = [op for op in results["fit" if wl.main == "fit" else "eval"]["ops"] if "micro_f1" in op]
    out = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": results["fit"]["env"],
        "attempted": len(ops),
        "failed": len(failed),
        "errors": [op["error"] for op in failed][:3],
        "absent": sorted(set(results["fit"]["absent"]) | set(results["eval"]["absent"])),
        "micro_f1": statistics.median(op["micro_f1"] for op in f1_ops) if f1_ops else None,
        "macro_f1": statistics.median(op["macro_f1"] for op in f1_ops) if f1_ops else None,
    }
    if trace:
        out["metrics"], out["never_fired"] = per_layer(results, wl)
        path = WORK / f"trace-{name}-seed{seed}.json"
        spans = {p: {"ops": results[p]["ops"], "spans": results[p]["spans"]} for p in results}
        path.write_text(json.dumps({**out, "phases": spans}), encoding="utf-8")
        out["trace_file"] = str(path.relative_to(ROOT))
    else:
        out["metrics"], out["samples"] = end_to_end(results, wl)
    return out


def result_line(out: dict, declared: list[dict]) -> dict:
    """The contract's JSON object, with units from BENCHMARK.json."""
    names = {m["name"] for m in declared}
    if names != set(out["metrics"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(out['metrics']))}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def report(out: dict, declared: list[dict]) -> str:
    env = out["env"]
    lines = [
        f"workload {out['workload']}  seed {out['seed']}  trace {int(out['trace'])}",
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"BLAS {env['blas']} with {env['blas_threads']} threads, nproc {env['nproc']}",
        f"operations: {out['attempted']} attempted, {out['failed']} failed, "
        f"failed_frac {out['failed'] / out['attempted']:.4g} ratio",
    ]
    if out["micro_f1"] is not None:
        lines.append(
            f"target_micro_f1 {out['micro_f1']:.4f} ratio, "
            f"target_macro_f1 {out['macro_f1']:.4f} ratio"
        )
    if "samples" in out:
        lines.append("samples: " + ", ".join(f"{v} {k}" for k, v in out["samples"].items()))
    for m in declared:
        lines.append(f"  {m['name']:<30} {out['metrics'][m['name']]:>14.6g} {m['unit']}")
    for key in ("errors", "absent", "never_fired", "trace_file"):
        if out.get(key):
            lines.append(f"{key}: {out[key]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for testing")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crossnode" / "__init__.py").is_file():
        print(f"error: no crossnode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    runs = [(args.workload, bool(args.trace))]
    if args.all:
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    lines = {}
    try:
        for name, trace in runs:
            out = run_workload(name, args.seed, seconds, trace, args.smoke)
            declared = bench["per_layer" if trace else "end_to_end"]
            lines[f"{name}/trace{int(trace)}"] = result_line(out, declared)
            print(report(out, declared), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines if args.all else lines.popitem()[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
