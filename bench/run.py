"""dgres benchmark: certified queries timed end to end, and traced per layer.

Run from the root of a checkout; the library is imported from ./src, in
process, through its public API.

    python3 bench/run.py --workload pd-k2 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 1
    python3 bench/run.py --check                 # one untimed query per workload
    python3 bench/run.py --record                # re-pin bench/reference.json

A timed run (--trace 0) is a closed loop of identical queries for --seconds
and reports end-to-end metrics; a traced run (--trace 1) alternates
untraced and traced queries and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with the spans of a traced
run, goes to bench/out/.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 25
RECORD_SEEDS = (0, 1, 5)


def import_library():
    """Import dgres from this checkout's sources, never from elsewhere."""
    if not (SRC / "dgres" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no dgres sources at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dgres

    if Path(dgres.__file__).resolve().parent != SRC / "dgres":
        sys.exit(f"bench/run.py: imported dgres from {dgres.__file__}, expected {SRC / 'dgres'}")


def environment(args) -> dict:
    import numpy as np

    from workloads import CAPS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "caps": CAPS,
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def timed_loop(name, inst, seed, seconds, reference, tracer=None, probes=0) -> SimpleNamespace:
    """Closed loop of queries for `seconds`; at least one query.

    With a tracer, every second query runs traced, so that traced and
    untraced queries see the same spells of machine load, and the loop runs
    at least one of each; the tracer's patches are removed again after each
    traced query.  With probes > 0 the loop also times that many set-ups
    (setup_probe), at evenly spaced points of the run between queries, for the
    same reason.  Probe time is added to the deadline and falls outside
    every query's timing.
    """
    from workloads import WORKLOADS, problems

    wl = WORKLOADS[name]
    loop = SimpleNamespace(walls=[], cpus=[], traced=[], errors=[], setups=[])
    least = 1 if tracer is None else 2
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(loop.setups) < probes and now - start >= seconds * len(loop.setups) / probes:
            loop.setups.append(setup_probe(name, seed))
            start += time.perf_counter() - now
            continue
        if len(loop.walls) >= least and now - start >= seconds:
            break
        traced = tracer is not None and len(loop.walls) % 2 == 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                with tracer, tracer.query():
                    out = wl.query(inst, seed)
            else:
                out = wl.query(inst, seed)
            bad = []
        except Exception as exc:  # a query that raises is a failed query
            out, bad = None, [f"{type(exc).__name__}: {exc}"]
        loop.walls.append(time.perf_counter() - w0)
        loop.cpus.append(time.process_time() - c0)
        loop.traced.append(traced)
        if out is not None:
            bad = problems(name, out, reference)
        if bad:
            loop.errors.append(bad)
    return loop


def setup_probe(name: str, seed: int) -> float:
    """Wall time of the library's own set-up, in this process: a fresh
    import of every dgres module and of the workload definitions, then
    building the instance and warming the caches on its algebra objects.

    The interpreter and numpy are already loaded, so their start-up is not
    counted: no change to dgres moves it, and at about 0.2 s, some 60% of a
    fresh process's set-up, it would hide most of a regression in the
    library's own set-up under the bound.  The modules imported here are
    dropped again afterwards, so the timed queries keep using the original
    ones.
    """
    def ours(module: str) -> bool:
        return module in ("dgres", "workloads") or module.startswith("dgres.")

    saved = {k: m for k, m in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    try:
        t0 = time.perf_counter()
        importlib.import_module("workloads").WORKLOADS[name].setup(seed)
        return time.perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
        gc.collect()  # the dropped modules sit in reference cycles; keep them out of peak_rss_mb


def save_spans(tr, path: Path):
    """All spans of a traced run as columns; start and end are seconds on
    the perf_counter clock, parent -1 marks a query root."""
    import numpy as np

    names = sorted(set(tr.names))
    index = {n: i for i, n in enumerate(names)}
    np.savez_compressed(path, names=np.array(names), name=np.array([index[n] for n in tr.names], dtype=np.int16),
                        start=np.array(tr.starts), end=np.array(tr.ends), parent=np.array(tr.parents))


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run(args) -> int:
    from workloads import WORKLOADS, load_reference

    wl = WORKLOADS[args.workload]
    reference = load_reference()
    inst = wl.setup(args.seed)
    OUT.mkdir(exist_ok=True)
    record = {"env": environment(args)}
    if args.trace:
        from tracer import Tracer, layer_metrics

        tr = Tracer()
        loop = timed_loop(args.workload, inst, args.seed, args.seconds, reference, tracer=tr)
        layers, by_function = layer_metrics(tr)
        metrics = {k: metric(v, layer_unit(k)) for k, v in sorted(layers.items())}
        traced = [w for w, t in zip(loop.walls, loop.traced) if t]
        plain = [w for w, t in zip(loop.walls, loop.traced) if not t]
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        record["traced"] = loop.traced
        record["self_s_by_function"] = by_function
        save_spans(tr, OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        loop = timed_loop(args.workload, inst, args.seed, args.seconds, reference, probes=SETUP_PROBES)
        record["setup_samples_s"] = loop.setups
        metrics = {
            "query_s": metric(statistics.median(loop.walls), "s"),
            "query_cpu_s": metric(statistics.median(loop.cpus), "s"),
            "setup_s": metric(statistics.median(loop.setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    walls, errors = loop.walls, loop.errors
    record.update(query_s=walls, query_cpu_s=loop.cpus, errors=errors)
    attempted, failed = len(walls), len(errors)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  {'traced' if args.trace else 'timed'}  "
          f"{attempted} queries")
    print("env " + json.dumps(record["env"]))
    if not args.trace:
        q1, q3 = quartiles(walls)
        print(f"query_s      {metrics['query_s']['value']:.4f} s  (median of {attempted}; q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"query_cpu_s  {metrics['query_cpu_s']['value']:.4f} s")
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(loop.setups)} in-process set-ups)")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    else:
        for k, m in metrics.items():
            print(f"{k:40s} {m['value']:.6g} {m['unit']}")
        top = ", ".join(f"{k} {v:.4f}" for k, v in list(record["self_s_by_function"].items())[:6])
        print(f"largest self time per query (s): {top}")
    print(f"failed_frac  {failed / attempted:.4f}  ({failed} of {attempted})")
    for bad in errors[:3]:
        print("FAILED: " + "; ".join(bad[:3]))
    print(json.dumps(result))
    return int(failed > 0)


def check(seed: int, names) -> int:
    from workloads import WORKLOADS, load_reference, problems

    reference = load_reference()
    status = 0
    for name in names:
        wl = WORKLOADS[name]
        t0 = time.perf_counter()
        bad = problems(name, wl.query(wl.setup(seed), seed), reference)
        print(f"{name:14s} {'ok' if not bad else 'FAILED'}  {time.perf_counter() - t0:.2f} s")
        for b in bad:
            print("  " + b)
        status |= bool(bad)
    return status


def record_reference() -> int:
    from workloads import REFERENCE, WORKLOADS

    ref = {}
    for name, wl in WORKLOADS.items():
        outs = [wl.query(wl.setup(seed), seed) for seed in RECORD_SEEDS]
        if any(o != outs[0] for o in outs[1:]):
            sys.exit(f"bench/run.py: {name} outputs depend on the seed; nothing pinned")
        ref[name] = outs[0]
    # one pinned output per line, so a re-pin shows as a readable diff
    blocks = []
    for name in sorted(ref):
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ref[name].items()))
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"pinned {sum(len(v) for v in ref.values())} outputs from seeds {RECORD_SEEDS} to {REFERENCE}")
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    import_library()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="run one untimed query per workload and compare")
    ap.add_argument("--record", action="store_true", help="re-pin the reference outputs")
    args = ap.parse_args(argv)
    if args.record:
        return record_reference()
    if args.check:
        return check(args.seed, WORKLOADS if args.workload == "all" else (args.workload,))
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
