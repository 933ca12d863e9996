"""parkbetti benchmark: one closed-loop workload per invocation.

    python3 benchmarks/run.py --workload gpw6 --seed 1 --seconds 45 --trace 0

One process, one client: the next op starts only when the previous one has
returned. The seed picks the op list of one pass (see ``workloads.PLANS``);
the run repeats that pass until ``--seconds`` would be exceeded, and checks
every op against the committed golden answers. Mismatches and exceptions
count as failures and never abort the run.

A fixed calibration kernel (``calibration.py``) is timed before every op
and after the last one; the gated timings are the ops' latencies scaled to
the reference machine speed, which keeps the machine's own drift in speed
out of them. The plain wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
both plain and traced and prints the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the plain single-threaded baseline, with no BLAS threads
# competing with the harness. Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # fresh child processes; with the run's own, setup_s is a median of 5
SETUP_CAL_RUNS = 5  # calibration kernel runs right after each set-up
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2  # untraced runs; op_tail_s is chosen for this many passes
TAIL_MIN_BEYOND = 10
MAX_ERRORS = 5  # failure reports kept for stderr; every failure is counted


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources or no goldens)."""


@dataclasses.dataclass
class Setup:
    pb: object
    ops: list
    graphs: list
    goldens: dict
    setup_s: float
    setup_cal_s: float = 0.0  # calibration kernel time right after set-up


def setup(workload: str, seed: int) -> Setup:
    """Import parkbetti from this checkout, build the population, draw the
    seeded op list, parse its graphs and load the goldens."""
    if not (SRC / "parkbetti" / "__init__.py").is_file():
        raise SetupError(f"no parkbetti sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parkbetti as pb

    if Path(pb.__file__).resolve().parent != (SRC / "parkbetti").resolve():
        raise SetupError(f"imported parkbetti from {pb.__file__}, not from {SRC}")
    try:
        goldens = workloads.load_goldens(workload)
    except OSError as exc:
        raise SetupError(f"cannot read goldens: {exc}") from None
    population = workloads.population_ops(workload, pb)
    ops = workloads.sample_ops(workload, population, goldens, seed)
    graphs = [pb.parse_graph(op.graph) for op in ops]
    setup_s = time.perf_counter() - _T0
    cal = statistics.median(calibration.measure() for _ in range(SETUP_CAL_RUNS))
    return Setup(pb, ops, graphs, goldens, setup_s, cal)


def probe_setup(workload: str, seed: int) -> tuple[list[tuple[float, float]], str | None]:
    """(set-up seconds, calibration seconds) of fresh interpreters, each
    doing the whole set-up, and the error that stopped the probes, if any."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    try:
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
            setup_s, cal = proc.stdout.split()[-2:]
            out.append((float(setup_s), float(cal)))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return out, f"{type(exc).__name__}: {exc}"
    return out, None


# ------------------------------------------------------------------ passes

@dataclasses.dataclass
class PassResult:
    wall_s: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    failed: int = 0
    check_s: dict = dataclasses.field(default_factory=dict)  # verify check -> seconds, summed
    cal: list = dataclasses.field(default_factory=list)  # kernel seconds before each op, and after the last

    def ref_latencies(self) -> list[float]:
        return calibration.to_ref(self.latencies, self.cal)

    def record(self, stage: str, latency: float, ok: bool, raw) -> None:
        self.latencies.append(latency)
        self.failed += not ok
        if stage == "verify" and raw is not None:
            for name, sec in raw.timings.items():
                self.check_s[name] = self.check_s.get(name, 0.0) + sec


def run_op(s: Setup, i: int, tracer=None, errors: list | None = None):
    """Run op ``i`` once on a fresh copy of its graph (so no cached property
    survives from an earlier run); returns (latency, ok, result)."""
    op = s.ops[i]
    G = dataclasses.replace(s.graphs[i])
    golden = s.goldens.get(op.key, {}).get("answer")
    raw = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = workloads.compute(s.pb, op.stage, G)
        else:
            raw = tracer.op(i, f"op.{op.stage}", workloads.compute, s.pb, op.stage, G)
        latency = time.perf_counter() - t0
        ok = workloads.check(op.stage, workloads.answer(op.stage, raw), golden)
        problem = None if ok else f"{op.key}: answer does not match the golden"
    except Exception:  # an op that raises is a failure, never an abort
        latency = time.perf_counter() - t0
        ok = False
        problem = f"{op.key}\n{traceback.format_exc()}"
    if problem and errors is not None and len(errors) < MAX_ERRORS:
        errors.append(problem)
    return latency, ok, raw


def run_pass(s: Setup, errors: list | None = None) -> PassResult:
    """Run every op once, in order, timing the calibration kernel before
    each op and after the last. wall_s is the sum of the op latencies.

    The garbage of earlier ops is collected before each op, outside its
    timing: otherwise an op pays for whatever ran before it, and the
    seeded op order moved the median latency of gpw6 by 13%."""
    result = PassResult()
    for i, op in enumerate(s.ops):
        gc.collect()
        result.cal.append(calibration.measure())
        result.record(op.stage, *run_op(s, i, errors=errors))
    result.cal.append(calibration.measure())
    result.wall_s = sum(result.latencies)
    return result


def run_paired_pass(s: Setup, tracer, errors: list | None = None) -> tuple[PassResult, PassResult]:
    """Run every op twice, plain and traced, alternating which goes first.
    Each side's wall_s is the sum of its op latencies. Pairing op by op keeps
    the machine's drift in speed out of the tracing overhead."""
    plain, traced = PassResult(), PassResult()
    for i, op in enumerate(s.ops):
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            if with_tracer:
                with tracer:
                    traced.record(op.stage, *run_op(s, i, tracer, errors))
            else:
                plain.record(op.stage, *run_op(s, i, errors=errors))
    plain.wall_s = sum(plain.latencies)
    traced.wall_s = sum(traced.latencies)
    return plain, traced


def run_passes(s: Setup, seconds: float, make_tracer=None, errors=None):
    """Repeat the pass while another one is expected to end within
    ``seconds``: at least MIN_PASSES passes, or one paired pass when
    tracing."""
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        if make_tracer is None:
            plain.append(run_pass(s, errors))
        else:
            tracer = make_tracer()
            pair = run_paired_pass(s, tracer, errors)
            plain.append(pair[0])
            traced.append(pair[1])
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        enough = traced or len(plain) >= MIN_PASSES
        if enough and elapsed + elapsed / len(plain) > seconds:
            return plain, traced, tracers


# ----------------------------------------------------------------- metrics

def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n_samples: int) -> float:
    """Highest whole percentile with at least TAIL_MIN_BEYOND of
    ``n_samples`` latencies beyond it; 50 when there are too few for that."""
    return max(50, math.floor(100 * (1 - TAIL_MIN_BEYOND / n_samples))) / 100


def timings(latencies_by_pass: list[list[float]], q: float, suffix: str) -> dict:
    """Median pass time, and the median and tail of every op latency of
    every pass."""
    pooled = [t for lat in latencies_by_pass for t in lat]
    return {
        f"wall{suffix}_s": (statistics.median(sum(lat) for lat in latencies_by_pass), "s"),
        f"op_p50{suffix}_s": (statistics.median(pooled), "s"),
        f"op_tail{suffix}_s": (percentile(pooled, q), "s"),
    }


def end_to_end(passes: list[PassResult], setup_s: float, q: float) -> dict:
    """The gated metrics: timings at reference speed (see calibration.py)."""
    return {
        **timings([p.ref_latencies() for p in passes], q, "_ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(plain, traced, tracers) -> dict:
    by_pass = [t.metrics() for t in tracers]
    out = {
        name: (statistics.median(m[name][0] for m in by_pass), unit)
        for name, (_, unit) in by_pass[0].items()
    }
    for name in workloads.CHECK_NAMES:
        out[f"verify.check.{name}.s"] = (statistics.median(p.check_s.get(name, 0.0) for p in plain), "s")
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    out["trace.base_wall_s"] = (plain_wall, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.op_spans_s"] = (statistics.median(t.top_level_seconds() for t in tracers), "s")
    out["trace.spans"] = (statistics.median(len(t.spans) for t in tracers), "count")
    return out


# ---------------------------------------------------------------- metadata

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def blas_info() -> dict:
    """BLAS library as numpy was built against it, and its live thread count."""
    import ctypes
    import glob

    import numpy as np

    info = {"library": "unknown", "threads": None, "threads_env": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def metadata(args, s: Setup, n_passes: int, attempted: int, q: float, overhead) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loop": "closed, one process, one client",
        "ops_per_pass": len(s.ops),
        "passes": n_passes,
        "ops_attempted": attempted,
        "op_tail_percentile": q * 100,
        "tracing_overhead": overhead,
    }


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        s = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(s.setup_s), repr(s.setup_cal_s))
        return 0

    errors: list[str] = []
    plain, traced, tracers = run_passes(
        s, args.seconds, tracer.Tracer if args.trace else None, errors)
    passes = plain + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    q = tail_quantile(len(s.ops) * MIN_PASSES)
    printed = {}
    if args.trace:
        metrics = per_layer(plain, traced, tracers)
        base = metrics["trace.base_wall_s"][0]
        overhead = {"traced_wall_s": metrics["trace.wall_s"][0], "plain_wall_s": base,
                    "overhead_s": metrics["trace.overhead_s"][0],
                    "overhead_share": metrics["trace.overhead_s"][0] / base,
                    "absent_boundaries": tracers[0].absent}
    else:
        probes, probe_error = probe_setup(args.workload, args.seed)
        setups = [(s.setup_s, s.setup_cal_s)] + probes
        setup_ref_s = statistics.median(t * calibration.REF_S / cal for t, cal in setups)
        metrics = end_to_end(plain, setup_ref_s, q)
        printed = dict(timings([p.latencies for p in plain], q, ""), setup_wall_s=(statistics.median(t for t, _ in setups), "s"))
        overhead = "not measured in an untraced run; see the --trace 1 output"
    meta = metadata(args, s, len(passes), attempted, q, overhead)
    if not args.trace:
        cal = [c for p in plain for c in p.cal]
        meta["calibration"] = {
            "ref_s": calibration.REF_S, "samples": len(cal), "median_s": statistics.median(cal),
            "min_s": min(cal), "max_s": max(cal)}
        meta["setups"] = {"runs": len(setups), "probe_error": probe_error,
                          "wall_s": [t for t, _ in setups], "cal_s": [c for _, c in setups]}
        meta["wall_clock"] = {name: value for name, (value, _) in printed.items()}

    for err in errors:
        print(f"op failure: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops/pass={len(s.ops)} passes={len(passes)}")
    for name, (value, unit) in {**printed, **metrics}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} 1  ({failed}/{attempted} ops)")
    if not args.trace:
        print(f"op_p50 and op_tail (the p{q * 100:g}) are over all {attempted} op latencies "
              f"({len(s.ops)} ops x {len(passes)} passes); *_ref_s and setup_s are at reference "
              f"speed, the others as measured")
    print("meta " + json.dumps(meta, sort_keys=True))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracers[0].write_spans(RESULTS / f"{stem}.spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, meta=meta, ops=[op.key for op in s.ops],
                  pass_latencies=[p.latencies for p in plain], pass_calibration=[p.cal for p in plain])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
