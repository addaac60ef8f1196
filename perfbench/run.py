"""qeskit benchmark: one closed-loop client, one process, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qeskit checkout; the engine is imported from its
``src/``.  ``--trace 0`` runs whole blocks of seeded tasks until at least S
seconds of engine time and at least 100 tasks are done, then prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of blocks twice,
untraced then traced, and prints the per-layer metrics; its counts repeat
exactly for a given seed.  Only the engine call is timed; every output is
checked outside the timed region, and a task whose output is wrong, whose
report breaks the schema, whose exit code is unexpected or that raises,
counts as failed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SCHEMA = SRC / "qeskit" / "report_schema.json"
OUT_DIR = ROOT / ".perfbench-out"

MIN_TASKS = 100          # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 7        # fresh-process set-ups per run; the median is kept
WALL_CAP_S = 150         # stop starting blocks after this much wall time
TRACE_BLOCKS = {"qes_requests": 4, "quad_symbolic": 3, "lame_spectrum": 4}

# Speed probe.  On a shared VM the CPU speed drifts by tens of percent over
# seconds as other tenants load the machine, and the drift moves whole runs.
# A fixed stdlib workload shaped like the engine's (Fraction arithmetic and
# small allocations) is timed just before and just after every timed call;
# each time is reported scaled by PROBE_NOMINAL_S / (mean of its two probes),
# i.e. in seconds at the probe's nominal speed (about its duration on a quiet
# 2-core VM, see README.md).  Raw wall times are printed as well.
PROBE_NOMINAL_S = 0.0025


def _probe() -> float:
    t0 = time.perf_counter()
    acc = []
    for i in range(1, 400):
        a = Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5) + Fraction(1, i)
        acc.append((a, a.numerator % 11))
    dict(acc)
    return time.perf_counter() - t0


def _timed(fn):
    """Run fn(); return (result, raw wall seconds, speed-normalised seconds)."""
    before = _probe()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    after = _probe()
    return out, dt, dt * 2 * PROBE_NOMINAL_S / (before + after)


def _import_engine():
    """Import qeskit from this checkout's src/; exit with an error if it is
    absent."""
    if not (SRC / "qeskit" / "__init__.py").is_file() or not SCHEMA.is_file():
        sys.exit(f"perfbench: no qeskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import qeskit
    if Path(qeskit.__file__).resolve().parent != SRC / "qeskit":
        sys.exit(f"perfbench: imported qeskit from {qeskit.__file__}, not {SRC}")


def _load_schema():
    with open(SCHEMA) as fh:
        return json.load(fh)


def _setup_only(workload: str, seed: int):
    """The set-up a fresh process pays before its first task: import the
    engine, load the report schema, generate the first block of inputs."""
    _import_engine()
    import workloads
    _load_schema()
    make, _ = workloads.BLOCKS[workload]
    make(seed, 0, None)


def _validator():
    import jsonschema
    return jsonschema.Draft202012Validator(_load_schema())


def _measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, wait() polls in steps of up to 50 ms
        samples.append(_timed(lambda: subprocess.run(
            cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))[2])
    return samples


class Result:
    """Per-task records of one pass over some blocks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.kinds: dict[str, int] = {}
        self.exits: dict[str, int] = {}
        self.symbolic = 0
        self.report_bytes = 0
        self.by_kind: dict[str, dict[str, float]] = {}  # traced self s by layer

    @property
    def correct(self) -> int:
        return self.attempted - self.failed


def _run_task(task, golden: dict, res: Result, tracer=None):
    res.attempted += 1
    res.kinds[task.kind] = res.kinds.get(task.kind, 0) + 1
    res.symbolic += task.symbolic
    if tracer is not None:
        # trace the engine call only, not the output check
        tracer.task = res.attempted
        before = tracer.layer_self_s()
        tracer.install()
    try:
        try:
            out, raw, dt = _timed(task.run)
        finally:
            if tracer is not None:
                tracer.uninstall()
                after = tracer.layer_self_s()
                share = res.by_kind.setdefault(task.kind, {"task": 0.0})
                for layer, v in after.items():
                    share[layer] = share.get(layer, 0.0) + v - before[layer]
    except Exception:
        res.failed += 1
        res.digests.append("raised")
        print(f"# FAILED {task.key}: raised\n{traceback.format_exc()}",
              file=sys.stderr)
        return
    res.latencies.append(dt)
    res.raw_latencies.append(raw)
    if tracer is not None:
        res.by_kind[task.kind]["task"] += raw
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        res.exits[str(out[0])] = res.exits.get(str(out[0]), 0) + 1
        res.report_bytes += len(out[1].encode())
    try:
        problems, dg = task.check(out)
    except Exception:
        problems, dg = [f"check raised:\n{traceback.format_exc()}"], "check-raised"
    want = golden.get(task.key)
    if want is not None and want != dg:
        problems.append(f"digest {dg} != golden {want}")
    res.digests.append(dg)
    if problems:
        res.failed += 1
        print(f"# FAILED {task.key}: {problems}", file=sys.stderr)


def _chain(digests) -> str:
    import workloads
    return workloads.digest(" ".join(digests))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds, blocks, golden, validator):
    import workloads
    make, size = workloads.BLOCKS[workload]
    min_blocks = blocks or -(-MIN_TASKS // size)
    res = Result()
    start = time.perf_counter()
    for b in itertools.count():
        for task in make(seed, b, validator):
            _run_task(task, golden, res)
        if b + 1 >= min_blocks and (
                sum(res.raw_latencies) >= seconds
                or time.perf_counter() - start > WALL_CAP_S):
            return res


def run_traced(workload, seed, blocks, golden, validator):
    import workloads
    from tracer import Tracer
    plain, traced = Result(), Result()
    tracer = Tracer()
    n = blocks or TRACE_BLOCKS[workload]
    make, _ = workloads.BLOCKS[workload]
    for b in range(n):
        for task in make(seed, b, validator):
            _run_task(task, golden, plain)
        for task in make(seed, b, validator):
            _run_task(task, golden, traced, tracer)
    mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
    if mismatched:
        print(f"# FAILED {mismatched} traced digests differ from untraced",
              file=sys.stderr)
    traced.failed += mismatched
    return plain, traced, tracer


def end_to_end(res: Result, setup: list[float]) -> dict:
    lat = sorted(res.latencies)
    return {
        "task_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "task_p90_ms": _metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "tasks_per_s": _metric(res.correct / sum(lat), "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_ratio": _metric(res.correct / res.attempted, "ratio"),
    }


def per_layer(plain: Result, traced: Result, tr) -> dict:
    from tracer import GCD_Q, GCD_QA
    c, s, k = tr.calls, tr.self_ns, tr.counts
    task_s = sum(traced.raw_latencies)
    m = {}

    def count(name, v):
        m[name] = _metric(v, "count")

    def secs(name):
        m[name] = _metric(s.get(name.removesuffix(".self_s"), 0) / 1e9, "s")

    count("scalars.poly_gcd.q.calls", c.get(GCD_Q, 0))
    secs("scalars.poly_gcd.q.self_s")
    count("scalars.poly_gcd.qa.calls", c.get(GCD_QA, 0))
    secs("scalars.poly_gcd.qa.self_s")
    m["scalars.poly_gcd.nontrivial_ratio"] = _metric(
        k["gcd.nontrivial"] / k["gcd.outer"] if k["gcd.outer"] else 0.0, "ratio")
    m["scalars.poly_gcd.max_input_bits"] = _metric(tr.max_bits, "bits")
    count("scalars.ParamScalar.new", c.get("scalars.ParamScalar.new", 0))
    for cls in ("den_one", "den_laurent", "den_other"):
        count(f"scalars.RatFunc.new.{cls}", k[cls])
    count("operators.compose.calls", c.get("operators.compose", 0))
    for name in ("operators.compose", "operators.conjugate_by_power",
                 "operators.act_quasi", "operators.act_rat",
                 "spaces.check_invariance", "spaces.search_preserving",
                 "probe.fit_poly_in_J0", "probe.commutator_table",
                 "quadext.lift_word", "quadext.MatOp.mul",
                 "quadext.s_generators", "quadext.closure_check",
                 "quadext.lame_pullback", "quadext.module_invariance",
                 "linalg.char_poly", "linalg.nullspace", "linalg.solve_exact",
                 "sturm.all_roots_real_and_distinct", "dsl.parse", "dsl.eval",
                 "dsl.parse_space", "cli.main"):
        secs(f"{name}.self_s")
    for name in ("spaces.search_preserving", "quadext.lift_word",
                 "quadext.s_generators", "quadext.closure_check",
                 "quadext.lame_pullback", "quadext.module_invariance",
                 "linalg.char_poly", "sturm.all_roots_real_and_distinct",
                 "cli.main"):
        m[f"{name}.total_s"] = _metric(tr.total_ns.get(name, 0) / 1e9, "s")
    count("quadext.MatOp.mul.calls", c.get("quadext.MatOp.mul", 0))
    count("linalg.char_poly.calls", c.get("linalg.char_poly", 0))
    count("linalg.cells", k["linalg.cells"])
    m["cli.report_bytes"] = _metric(traced.report_bytes, "bytes")
    cli_n = sum(traced.exits.values())
    m["cli.exit2_ratio"] = _metric(
        traced.exits.get("2", 0) / cli_n if cli_n else 0.0, "ratio")
    for layer, v in tr.layer_self_s().items():
        m[f"{layer}.self_s"] = _metric(v, "s")
    m["trace.task_s"] = _metric(task_s, "s")
    m["trace.overhead_ratio"] = _metric(
        sum(traced.latencies) / sum(plain.latencies), "ratio")
    m["input.symbolic_ratio"] = _metric(traced.symbolic / traced.attempted, "ratio")
    return m


def _print_shares(res: Result, tr=None):
    n = res.attempted
    print(f"# tasks {n}; kinds: " + ", ".join(
        f"{k} {v / n:.1%}" for k, v in sorted(res.kinds.items())))
    if res.exits:
        e = sum(res.exits.values())
        print("# exit codes: " + ", ".join(
            f"{k}: {v / e:.1%}" for k, v in sorted(res.exits.items())))
    print(f"# symbolic parameter: {res.symbolic / n:.1%}")
    raw = res.raw_latencies
    print(f"# raw wall time: p50 {statistics.median(raw) * 1e3:.2f} ms, "
          f"p90 {statistics.quantiles(raw, n=10)[8] * 1e3:.1f} ms, "
          f"engine total {sum(raw):.2f} s")
    if tr is not None:
        dens = [tr.counts[c] for c in ("den_one", "den_laurent", "den_other")]
        tot = sum(dens) or 1
        print("# RatFunc denominators: one {:.1%}, laurent {:.1%}, other {:.1%}"
              .format(*(d / tot for d in dens)))
        task_s = sum(res.raw_latencies)
        print("# layer self-time shares of traced task time: " + ", ".join(
            f"{k} {v / task_s:.1%}" for k, v in tr.layer_self_s().items()))
        for kind, d in sorted(res.by_kind.items()):
            t = d.pop("task")
            top = sorted(d.items(), key=lambda kv: -kv[1])[:4]
            print(f"#   {kind}: {t:.3f} s; " + ", ".join(
                f"{k} {v / t:.1%}" for k, v in top)
                + f"; dsl+cli {(d['dsl'] + d['cli']) / t:.1%}")


def _samples(res: Result, traced: bool) -> dict:
    if traced:
        return {}
    n = len(res.latencies)
    return {"task_p50_ms": n, "task_p90_ms": n, "tasks_per_s": n,
            "setup_s": SETUP_REPEATS, "correct_ratio": res.attempted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blocks", type=int, default=0,
                    help="blocks to run (untraced: at least; traced: exactly); "
                    "0 = the defaults, a value for the self-check")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    _import_engine()
    import workloads
    if args.workload not in workloads.BLOCKS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.BLOCKS)}")
    with open(BENCH / "golden.json") as fh:
        golden = json.load(fh).get(args.workload, {})
    validator = _validator()

    if args.trace:
        plain, traced, tr = run_traced(args.workload, args.seed, args.blocks,
                                       golden, validator)
        metrics = per_layer(plain, traced, tr)
        _print_shares(traced, tr)
        OUT_DIR.mkdir(exist_ok=True)
        tr.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
        print(f"# spans written: {len(tr.spans) // 6}; beyond the cap: "
              f"{tr.dropped}")
        res = traced
        res.attempted += plain.attempted
        res.failed += plain.failed
        chain = _chain(plain.digests)
    else:
        setup = _measure_setup(args.workload, args.seed)
        res = run_untraced(args.workload, args.seed, args.seconds, args.blocks,
                           golden, validator)
        metrics = end_to_end(res, setup)
        _print_shares(res)
        chain = _chain(res.digests)
    print(f"# digest-chain {chain}")
    samples = _samples(res, args.trace)
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:>14.6g} {m['unit']:6s} "
              f"samples {samples.get(name, 1)}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
