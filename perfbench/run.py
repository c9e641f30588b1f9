"""stpca benchmark runner: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Run it from a source checkout; it imports ``stpca`` from the checkout's
``src`` directory and nowhere else. The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the line before it
gives the details (op count, tail percentile, failed fraction, exact counts,
and for a traced run the per-stage breakdown).

``--trace 0`` reports the end-to-end metrics. Ops run back to back until they
have taken ``--seconds`` and at least MIN_OPS ops have run, so the tail
percentile always has ten ops beyond it and two at or below it. On an interpreter-bound workload a
host probe, a fixed pure-Python loop, runs before the first op and after each
op, and each op's time is scaled to the reference host (where the probe takes
REFERENCE_PROBE_S) by the mean of the two probes beside it; the unscaled times
are in the detail line. ``setup_s`` is the median over SETUP_REPEATS fresh
interpreters, half started before the loop and half after it, of the time to
import the library and build the workload; it is not scaled.

``--trace 1`` reports the per-layer metrics. After one warm-up op it runs the
workload's ops for half of ``--seconds`` (at least three pairs), alternating
untraced and traced; the median of the pairs' differences is the tracing
overhead. Then it runs one traced op of every other workload, so that every
layer is measured at the configuration of the workload it belongs to; one op
each of ``scan`` and ``dense`` under tracemalloc; and the probes that need
calls of their own. When the run ends the spans are written to
``.perfbench_out/trace_<workload>_<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_TRACED_OPS = 3
SETUP_REPEATS = 10
TAIL_BEYOND = 10
# two ops at or below the tail, so that no single op decides it
MIN_OPS = TAIL_BEYOND + 2
RANK1_CALLS = 2000
HOST_PROBE_STEPS = 2 * 10**6
# seconds HOST_PROBE_STEPS take on the reference host that times are scaled to
REFERENCE_PROBE_S = 0.2


def _import_workloads():
    """Import the benchmark's workloads against the checkout's own stpca."""
    sys.path.insert(0, str(ROOT / "src"))
    import stpca
    import workloads

    if not Path(stpca.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"stpca imported from {stpca.__file__}, not from this checkout")
    return workloads


def _setup_child(args) -> None:
    start = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _setup_samples(args, repeats: int) -> list[float]:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-child"]
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def _checked(fn, *args) -> bool:
    """Run one op; an exception counts as a failed op and the run goes on."""
    try:
        return bool(fn(*args))
    except Exception:
        traceback.print_exc()
        return False


def _host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs right
    now. It calls nothing in stpca."""
    start = time.perf_counter()
    total = 0
    for i in range(HOST_PROBE_STEPS):
        total += i * i
    return time.perf_counter() - start


def _loop(op, seconds: float, min_ops: int, probe: bool):
    """Closed loop: op i+1 starts when op i returns, after one host probe if
    `probe`. Runs until the ops alone have taken `seconds` and at least
    `min_ops` ops have run. Returns op durations, host probes (one before the
    first op and one after each op) and failures."""
    durations: list[float] = []
    probes = [_host_probe()] if probe else []
    failed = 0
    while True:
        t0 = time.perf_counter()
        failed += not _checked(op, len(durations))
        durations.append(time.perf_counter() - t0)
        if probe:
            probes.append(_host_probe())
        if sum(durations) >= seconds and len(durations) >= min_ops:
            return durations, probes, failed


def _tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(durations)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(args, workload) -> tuple[dict, dict, int, int]:
    # half of the set-up samples before the loop and half after, so that one
    # moment of the machine's state does not decide the median
    setup = _setup_samples(args, SETUP_REPEATS // 2)
    durations, probes, failed = _loop(workload.op, args.seconds, MIN_OPS,
                                      workload.interpreter_bound)
    setup += _setup_samples(args, SETUP_REPEATS - len(setup))
    # Each op's time is scaled to the reference host by the probes on either
    # side of it: the shared host's interpreter speed wanders by up to 2x
    # within minutes, and an interpreter-bound op run while it is slow takes
    # longer in the same proportion.
    scaled = durations
    if workload.interpreter_bound:
        scaled = [d * REFERENCE_PROBE_S / ((a + b) / 2)
                  for d, a, b in zip(durations, probes, probes[1:])]
    tail, percentile = _tail(scaled)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "op_s_p50": _metric(statistics.median(scaled), "s"),
        "op_s_tail": _metric(tail, "s"),
        "ops_per_s": _metric(len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "ops": len(durations),
        "op_s_tail_percentile": percentile,
        "failed_fraction": failed / len(durations),
        "unscaled": {"op_s_p50": statistics.median(durations),
                     "op_s_tail": _tail(durations)[0],
                     "ops_per_s": len(durations) / sum(durations)},
        "op_s": durations,
        "host_probe_s": probes,
        "setup_s_samples": setup,
        "counts": workload.counts(),
    }
    return metrics, info, len(durations), failed


def _median_stage(spans, prefix: str, stage: str, key=None) -> float:
    values = [tracing.per_op_totals(op, key)[stage] for op in tracing.op_spans(spans, prefix)]
    return statistics.median(values)


def _probes(home: dict) -> dict:
    """Measurements that need calls of their own, made untraced."""
    import workloads
    from stpca import lowdeg, model, recovery, tensor

    scan = home["scan"]
    s = workloads.op_seed(scan.seed, 0)
    Y1, _ = recovery.preprocess_split(model.sample_sstm(scan.spec, s).observation, s)
    nproc = len(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    v1, value1 = recovery.argmax_over_Ut(Y1, scan.t, workers=1)
    t1 = time.perf_counter()
    vn, valuen = recovery.argmax_over_Ut(Y1, scan.t, workers=nproc)
    t2 = time.perf_counter()

    general = home["general"]
    Y = model.sample_noise_tensor(general.n, general.p, general.seed)
    u = tensor.SparseSignVector(general.n, (1, 2), (1, -1))
    v = tensor.SparseSignVector(general.n, (3, 4), (1, 1))
    rounds = []
    for _ in range(5):
        r0 = time.perf_counter()
        for _ in range(RANK1_CALLS):
            tensor.rank1_inner(Y, [u, u, v])
        rounds.append((time.perf_counter() - r0) / RANK1_CALLS)

    limits = home["limits"]
    lowdeg.chi_squared_exact(limits.params)
    warm = []
    for _ in range(3):
        w0 = time.perf_counter()
        lowdeg.chi_squared_exact(limits.params)
        warm.append(time.perf_counter() - w0)
    return {
        "nproc": nproc,
        "speedup": (t1 - t0) / (t2 - t1),
        "same_argmax": (v1.support, v1.signs, value1) == (vn.support, vn.signs, valuen),
        "rank1_inner_s": statistics.median(rounds),
        "chi2_warm_s": statistics.median(warm),
    }


def traced_run(args, workload, workdir: str) -> tuple[dict, dict, int, int]:
    import workloads

    name = workload.name
    home = {key: cls(args.seed, workdir) for key, cls in workloads.WORKLOADS.items()}
    home[name] = workload
    # one warm-up op, so the first op's one-off costs do not count as overhead
    failed = not _checked(workload.op, 0)
    # untraced and traced ops alternate, so both see the same machine state
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds / 2 or len(traced) < MIN_TRACED_OPS:
        i = 1 + 2 * len(traced)
        t0 = time.perf_counter()
        failed += not _checked(workload.op, i)
        t1 = time.perf_counter()
        with tracing.patched(tracer):
            failed += not _checked(tracer.op, f"{name}:{i + 1}", f"op.{name}", workload.op, i + 1)
        untraced.append(t1 - t0)
        traced.append(time.perf_counter() - t1)

    with tracing.patched(tracer):
        others = [key for key in home if key != name]
        for key in others:
            failed += not _checked(tracer.op, f"{key}:0", f"op.{key}", home[key].op, 0)

    alloc = tracing.Tracer(track_alloc=True)
    tracemalloc.start()
    try:
        with tracing.patched(alloc):
            for key in ("scan", "dense"):
                failed += not _checked(alloc.op, f"{key}:alloc", f"op.{key}", home[key].op, 0)
    finally:
        tracemalloc.stop()

    probes = _probes(home)
    failed += not probes["same_argmax"]
    # warm-up op, op pairs, one op per other workload, two tracemalloc ops, argmax identity
    attempted = 1 + 2 * len(traced) + len(others) + 2 + 1

    counts = {key: wl.counts() for key, wl in home.items()}
    spans = tracer.spans
    metrics: dict[str, dict] = {}

    def seconds(prefix: str, stage: str) -> float:
        return _median_stage(spans, prefix, stage)

    def alloc_mb(prefix: str, stage: str) -> float:
        return _median_stage(alloc.spans, prefix, stage, tracing.ALLOC) / 2**20

    argmax_s = seconds("scan:", "recovery.argmax_over_Ut")
    candidates = counts["scan"]["recovery.argmax_over_Ut.candidates"]
    metrics["recovery.argmax_over_Ut.s"] = _metric(argmax_s, "s")
    metrics["recovery.argmax_over_Ut.candidates"] = _metric(candidates, "count")
    metrics["recovery.argmax_over_Ut.candidates_per_s"] = _metric(candidates / argmax_s, "1/s")
    metrics["recovery.argmax_over_Ut.alloc_peak_mb"] = _metric(
        alloc_mb("scan:", "recovery.argmax_over_Ut"), "MB")
    metrics["recovery.argmax_over_Ut.wnproc_speedup"] = _metric(probes["speedup"], "x")

    dense = home["dense"]
    tensor_mb = 8 * dense.n**dense.p / 2**20
    for stage in ("model.sample_noise_tensor", "tensor.add_rank1", "model.sample_sstm",
                  "recovery.preprocess_split"):
        peak = alloc_mb("dense:", stage)
        metrics[f"{stage}.s"] = _metric(seconds("dense:", stage), "s")
        metrics[f"{stage}.alloc_peak_mb"] = _metric(peak, "MB")
        metrics[f"{stage}.copies"] = _metric(peak / tensor_mb, "x")
    file_bytes = counts["dense"]["tensor.write_sstf1.bytes"]
    for stage in ("tensor.write_sstf1", "tensor.read_sstf1"):
        stage_s = seconds("dense:", stage)
        metrics[f"{stage}.s"] = _metric(stage_s, "s")
        metrics[f"{stage}.mb_per_s"] = _metric(file_bytes / 2**20 / stage_s, "MB/s")
    metrics["tensor.write_sstf1.bytes"] = _metric(file_bytes, "count")
    for stage in ("tensor.contract_leave_one", "recovery.top_k_magnitude",
                  "recovery.match_supports"):
        metrics[f"{stage}.s"] = _metric(seconds("dense:", stage), "s")

    general_s = seconds("general:", "recovery.recover_general")
    tuples = counts["general"]["recovery.recover_general.tuples"]
    metrics["recovery.recover_general.s"] = _metric(general_s, "s")
    metrics["recovery.recover_general.tuples"] = _metric(tuples, "count")
    metrics["recovery.recover_general.tuples_per_s"] = _metric(tuples / general_s, "1/s")
    metrics["tensor.rank1_inner.us"] = _metric(probes["rank1_inner_s"] * 1e6, "us")
    metrics["tensor.contract_leave_mode.s"] = _metric(
        seconds("general:", "tensor.contract_leave_mode"), "s")

    # each limits op calls chi_squared_exact twice: exact on a cold cache, then log-float
    chi = [[sp[tracing.END] - sp[tracing.START] for sp in op
            if sp[tracing.NAME] == "lowdeg.chi_squared_exact"]
           for op in tracing.op_spans(spans, "limits:")]
    metrics["lowdeg.chi_squared_exact.cold_s"] = _metric(statistics.median(c[0] for c in chi), "s")
    metrics["lowdeg.chi_squared_exact.warm_s"] = _metric(probes["chi2_warm_s"], "s")
    metrics["lowdeg.chi_squared_exact.log_float_s"] = _metric(
        statistics.median(c[1] for c in chi), "s")
    metrics["lowdeg.even_all_count.entries"] = _metric(
        counts["limits"]["lowdeg.even_all_count.entries"], "count")
    for stage in ("infotheory.it_bound_report", "infotheory.covering_number_oracle"):
        metrics[f"{stage}.s"] = _metric(seconds("limits:", stage), "s")

    breakdown = tracing.self_times(spans, f"{name}:")
    walls = [op["wall_s"] for op in breakdown["ops"]]
    info = {
        "ops_untraced": len(untraced),
        "ops_traced": len(traced),
        "op_s_p50_untraced": statistics.median(untraced),
        "op_s_p50_traced": statistics.median(traced),
        "tracing_overhead_s": statistics.median(b - a for a, b in zip(untraced, traced)),
        "op_wall_s_p50": statistics.median(walls),
        "uncovered_s_p50": statistics.median(op["uncovered_s"] for op in breakdown["ops"]),
        "max_self_sum_error_s": max(abs(op["self_sum_s"] - op["wall_s"])
                                    for op in breakdown["ops"]),
        "stages": breakdown["stages"],
        "nproc": probes["nproc"],
        "counts": counts,
    }
    trace_path = OUT / f"trace_{name}_{args.seed}.json"
    with open(trace_path, "w") as f:
        json.dump({"fields": tracing.SPAN_FIELDS, "spans": spans, "alloc_spans": alloc.spans,
                   "summary": info}, f)
        f.write("\n")
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, info, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "dense", "general", "limits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.setup_child:
        _setup_child(args)
        return 0
    workloads = _import_workloads()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        oracle_ok = workloads.oracle_check()
        if args.trace:
            metrics, info, attempted, failed = traced_run(args, workload, workdir)
        else:
            metrics, info, attempted, failed = untraced_run(args, workload)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "oracle_check": oracle_ok, **info}
    print(json.dumps(info))
    print(json.dumps({"correct": oracle_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
