#!/usr/bin/env python3
"""Benchmark for sparsekm: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune-mv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table
    python3 perfbench/run.py --self-test                  # tiny sizes, a few seconds

Set-up imports sparsekm and builds the workload's K inputs from ``--seed``
(input j from seed K * seed + j); it is timed SETUP_REPEATS times, here and
in fresh interpreters. The run then repeats the workload's
operation, one top-level library or CLI call, cycling through the inputs,
for about ``--seconds`` and at least once per input. Averaging over several
inputs keeps the figures of one run from hanging on one dataset. Every
operation's output is checked and fingerprinted (SHA-256 over labels,
weights, objective traces and gap curves); repeats on one input must give
one fingerprint, and it is compared with the reference in fingerprints.json.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
operation and set-up times are rescaled to a reference machine speed (see
speed.py). With ``--trace 1`` operations on the first input alternate
between untraced and traced (see spans.py), and the run reports the
per-layer metrics, including the tracing overhead. The last line of standard
output is one JSON object; results and spans go to ``.perfbench/`` in the
checkout. BLAS is pinned to one thread, so the load is one busy core of one
process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYERS_PATH = HERE / "layers.json"
FINGERPRINTS_PATH = HERE / "fingerprints.json"
# Not read from workloads.py: importing it imports sparsekm, which set-up times.
WORKLOAD_NAMES = ["tune-mv", "gauss-wide", "tune-fd", "cli-cluster"]
SETUP_REPEATS = 3
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _import_library():
    """Make ``import sparsekm`` load the checkout's own src/ tree, or exit."""
    if not (SRC / "sparsekm" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sparsekm'} not found; run from a sparsekm checkout")
    sys.path.insert(0, str(SRC))


def _input_seeds(wl, seed: int) -> list[int]:
    return [wl.inputs_per_run * seed + j for j in range(wl.inputs_per_run)]


def _setup(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Import the library and build a run's inputs.

    Returns (workload, inputs, seconds at reference speed). numpy, which the
    speed probe needs, is imported before the clock starts.
    """
    import speed

    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        import workloads

        wl = workloads.WORKLOADS[name]
        inputs = [wl.setup(s, workdir / f"input-{s}", tiny) for s in _input_seeds(wl, seed)]
        seconds = time.perf_counter() - t0
    return wl, inputs, probe.normalize(seconds)


def _setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _run_ops(wl, inputs, seconds: float, tracer=None) -> list[dict]:
    """Repeat the workload's operation for about ``seconds``.

    Without a tracer, operations cycle through the inputs, each under a
    SpeedProbe, and there is at least one per input. With a tracer, every
    operation is on the first input, odd-numbered ones traced, and there is
    at least one of each kind. An operation starts only if it is expected to
    end in time, once that minimum is reached.
    """
    import speed

    deadline = time.perf_counter() + seconds
    min_ops = len(inputs) if tracer is None else 2
    ops: list[dict] = []
    while True:
        i = len(ops)
        j = i % len(inputs) if tracer is None else 0
        traced = tracer is not None and i % 2 == 1
        op = {"op": i, "input": j, "traced": traced, "problems": []}
        raw = None
        probe = speed.SpeedProbe() if tracer is None else nullcontext()
        with tracer.operation(i) if traced else probe:
            t0 = time.perf_counter()
            try:
                raw = wl.call(inputs[j])
            except Exception:  # a failed operation is counted, not fatal
                op["problems"].append(traceback.format_exc(limit=3))
            op["seconds"] = time.perf_counter() - t0
        if tracer is None:
            op["ref_seconds"] = probe.normalize(op["seconds"])
        if not op["problems"]:
            try:
                outcome = wl.evaluate(inputs[j], raw)
            except Exception:
                op["problems"].append(traceback.format_exc(limit=3))
            else:
                op.update(problems=outcome.problems, quality=outcome.quality,
                          info=outcome.info, fingerprint=outcome.fingerprint())
        ops.append(op)
        typical = statistics.median(o["seconds"] for o in ops)
        if len(ops) >= min_ops and time.perf_counter() + typical > deadline:
            return ops


def _fingerprints(ops: list[dict]) -> dict[int, str]:
    """One fingerprint per input; repeats that disagree become problems."""
    found: dict[int, str] = {}
    for o in ops:
        if "fingerprint" not in o:
            continue
        first = found.setdefault(o["input"], o["fingerprint"])
        if o["fingerprint"] != first:
            o["problems"].append(f"fingerprint {o['fingerprint'][:12]} differs from "
                                 f"{first[:12]} on the same input")
    return found


def _end_to_end(ops, setup_times) -> dict[str, float]:
    """Each figure is the mean over the inputs of the median over their operations."""
    by_input: dict[int, list[dict]] = {}
    for o in ops:
        by_input.setdefault(o["input"], []).append(o)

    def over_inputs(value, valid_only=True):
        per_input = []
        for group in by_input.values():
            vals = [value(o) for o in group if not (valid_only and o["problems"])]
            if vals:
                per_input.append(statistics.median(vals))
        return statistics.mean(per_input) if per_input else 0.0

    metrics = {
        "wall_ref_s": over_inputs(lambda o: o["ref_seconds"], valid_only=False),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "valid_frac": sum(1 for o in ops if not o["problems"]) / len(ops),
    }
    for key in ("rand_index.hard", "signal_recall"):
        metrics[key] = over_inputs(lambda o: o["quality"][key])
    return metrics


def _per_layer(ops, tracer) -> dict[str, float]:
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    metrics = tracer.layer_metrics([o["op"] for o in traced])
    metrics["trace.overhead_frac"] = (
        statistics.median(o["seconds"] for o in traced)
        / statistics.median(o["seconds"] for o in plain) - 1.0
    )
    return metrics


def _with_units(values: dict[str, float], defs: list[dict]) -> dict:
    """Attach BENCHMARK.json's units; the names must be exactly its names."""
    names = [d["name"] for d in defs]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]} for d in defs}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    except OSError:
        pass
    return f"unknown (OPENBLAS_NUM_THREADS={BLAS_THREADS})"


def _stamp() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _compare_fingerprints(wl, ops, found: dict[int, str], seed: int,
                          record: bool) -> list[str]:
    """Compare each input's fingerprint with its reference, or record it."""
    refs = json.loads(FINGERPRINTS_PATH.read_text())
    known = refs.setdefault(wl.name, {})
    lines = []
    for j, input_seed in enumerate(_input_seeds(wl, seed)):
        if not any(o["input"] == j for o in ops):
            continue
        got = found.get(j)
        ref = known.get(str(input_seed))
        if got is None:
            status = "no valid operation"
        elif record:
            known[str(input_seed)] = got
            status = "recorded as reference"
        elif ref is None:
            status = "no reference recorded"
        else:
            status = "matches reference" if ref == got else f"MISMATCH with reference {ref}"
        lines.append(f"fingerprint {wl.name} input seed {input_seed}: {got} {status}")
    if record:
        refs[wl.name] = dict(sorted(known.items(), key=lambda kv: int(kv[0])))
        FINGERPRINTS_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return lines


def run_one(args) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl, inputs, setup_s = _setup(args.workload, args.seed, workdir)
        setup_times = [setup_s] + [_setup_in_child(args.workload, args.seed)
                                   for _ in range(SETUP_REPEATS - 1)]
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        ops = _run_ops(wl, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    found = _fingerprints(ops)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = _with_units(_per_layer(ops, tracer), spec["per_layer"])
        spans_path = OUT / f"spans-{tag}.jsonl.gz"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = _with_units(_end_to_end(ops, setup_times), spec["end_to_end"])
    failed = sum(1 for o in ops if o["problems"])
    status = _compare_fingerprints(wl, ops, found, args.seed,
                                   args.record and failed == 0 and not args.trace)

    stamp = _stamp()
    result = {"workload": args.workload, "seed": args.seed,
              "input_seeds": _input_seeds(wl, args.seed), "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp, "setup_s": setup_times,
              "fingerprints": status, "ops": ops, "metrics": metrics}
    result_path = OUT / f"result-{tag}.json"
    result_path.write_text(json.dumps(result, indent=2, default=str) + "\n")

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for o in ops:
        kind = "traced" if o["traced"] else "untraced"
        verdict = "ok" if not o["problems"] else "FAILED: " + "; ".join(o["problems"])
        info = " ".join(f"{k}={v:.6g}" for k, v in o.get("info", {}).items())
        ref = f" ({o['ref_seconds']:.4f} s at reference speed)" if "ref_seconds" in o else ""
        print(f"op {o['op']} input {o['input']}: {o['seconds']:.4f} s{ref} {kind} {info} {verdict}")
    print("\n".join(status))
    print(f"result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table of metrics."""
    bad = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            bad += 1
            continue
        for line in lines[:-1]:
            if "FAILED" in line or "MISMATCH" in line:
                print(f"{name}: {line}")
        print(f"{name}: {res['attempted']} operations, {res['failed']} failed")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
        bad += proc.returncode != 0 or not res["correct"]
    return 1 if bad else 0


def self_test() -> int:
    """Tiny sizes: metric names are well formed and match BENCHMARK.json and
    layers.json, and traced operations give the untraced fingerprints."""
    import spans

    spec = json.loads(SPEC_PATH.read_text())
    layers = json.loads(LAYERS_PATH.read_text())
    problems = []
    for section in ("end_to_end", "per_layer"):
        problems += [f"bad metric name {d['name']!r}" for d in spec[section]
                     if not NAME_RE.fullmatch(d["name"])]
    if [d["name"] for d in layers] != [d["name"] for d in spec["per_layer"]]:
        problems.append("layers.json and BENCHMARK.json list different per-layer metrics")
    if [w["name"] for w in spec["workloads"]] != WORKLOAD_NAMES:
        problems.append("BENCHMARK.json lists other workloads than run.py")
    import workloads

    if list(workloads.WORKLOADS) != WORKLOAD_NAMES:
        problems.append("workloads.py defines other workloads than run.py")
    workdir = OUT / f"selftest-{os.getpid()}"
    try:
        for name in WORKLOAD_NAMES:
            wl, inputs, _ = _setup(name, 7, workdir / name, tiny=True)
            plain = _run_ops(wl, inputs, 0.0)  # one operation per input
            tracer = spans.Tracer()
            traced = _run_ops(wl, inputs, 0.0, tracer)  # first input: untraced, traced
            ops = plain + traced
            found = _fingerprints(ops)
            problems += [f"{name} op {o['op']}: {p}" for o in ops for p in o["problems"]]
            if not any(o["problems"] for o in ops):
                _with_units(_end_to_end(plain, [0.0]), spec["end_to_end"])
                _with_units(_per_layer(traced, tracer), spec["per_layer"])
            print(f"self-test {name}: {len(ops)} operations, fingerprints "
                  f"{[found.get(j, '-')[:12] for j in range(len(inputs))]}")
    except Exception:
        problems.append(traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test ok" if not problems else "self-test failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this untraced run's fingerprints as the references")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_library()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        workdir = OUT / f"work-{os.getpid()}"
        try:
            print(_setup(args.workload, args.seed, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.seconds is None:
        args.seconds = json.loads(SPEC_PATH.read_text())["run_seconds"]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
