"""lipdeg benchmark: one workload per process, fixed job lists, checked outputs.

Run from the root of a lipdeg source tree:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

A run repeats the workload's job list, on the same inputs, until
``--seconds`` is spent (at least three passes).  After every job it times a
fixed host-speed probe (probe.py); the end-to-end times are job times in
units of that probe.  The run prints, as its last
stdout line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` even passes run traced and odd passes untraced, and the
metrics are the per-layer ones taken from the spans of the traced passes.
``--workload all`` runs every workload, untraced and traced, each in a
fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("algebra", "spectral", "pipeline")
# the host probe that matches each workload's kind of work (see probe.py)
PROBE_KIND = {"algebra": "compute", "spectral": "memory", "pipeline": "memory"}
LAYERS = ("exterior", "rings", "scalability", "bands", "gridio", "degbound", "construct", "cli")
MIN_PASSES = 3
SETUP_SAMPLES = 11

# A fresh interpreter imports numpy, then lipdeg.cli, then compiles and runs
# a fixed generated module: the reference for the interpreter's speed.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import lipdeg.cli
t2 = time.perf_counter()
src = "\\n".join(
    f"class C{{i}}:\\n    def f(self, a, b={{i}}):\\n        return [a * b + k for k in range({{i}} % 7)]\\n"
    f"def g{{i}}(x, y):\\n    d = {{{{'a': x, 'b': y, 'c': {{i}}}}}}\\n    return sum(d.values()) if x else y\\n"
    for i in range(400)
)
exec(compile(src, "<reference>", "exec"), {{}})
t3 = time.perf_counter()
layers = {layers!r}
missing = [m for m in layers if "lipdeg." + m not in sys.modules]
print(t1 - t0, t2 - t1, t3 - t2) if not missing else print("missing", *missing)
"""
# the reference module's compile and run time on the baseline host, seconds
REFERENCE_S = 0.065


def die(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def median(values) -> float:
    return float(statistics.median(values))


def measure_setup(env: dict) -> tuple:
    """Time for a fresh interpreter to import lipdeg.cli and every layer.

    Returns (setup_s, raw_s, numpy_s).  raw_s is the median time to import
    lipdeg.cli once numpy is loaded, and numpy_s the median time to import
    numpy.  setup_s is the median of the lipdeg import times scaled to the
    baseline host's speed: by REFERENCE_S over the time the same
    interpreter took for the reference module right after.  The raw time
    drifts with the host by tens of percent within seconds; the scaled one
    by a few percent.  numpy is left out: no change to lipdeg can avoid it.
    """
    code = SETUP_PROBE.format(layers=LAYERS)
    scaled, raw, numpy_s = [], [], []
    for i in range(SETUP_SAMPLES + 1):  # the first import also writes bytecode
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if res.returncode != 0 or "missing" in res.stdout:
            die(f"importing lipdeg.cli failed: {res.stdout.strip()} {res.stderr.strip()}")
        if i:
            t_numpy, t_lipdeg, t_ref = map(float, res.stdout.split())
            scaled.append(t_lipdeg * REFERENCE_S / t_ref)
            raw.append(t_lipdeg)
            numpy_s.append(t_numpy)
    return median(scaled), median(raw), median(numpy_s)


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {
        k: os.environ[k]
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
    }


# -- per-layer metrics ---------------------------------------------------------

# metric -> (layer, span names) for time spent in named public functions
FUNCTION_TIMES = {
    "scalability.search_s": ("scalability", ("search_embedding", "check_middle_form")),
    "bands.band_profile_s": ("bands", ("band_profile",)),
    "bands.band_decompose_s": ("bands", ("band_decompose",)),
    "bands.exterior_derivative_s": ("bands", ("exterior_derivative",)),
    "bands.primitive_s": ("bands", ("primitive",)),
    "bands.project_band_s": ("bands", ("project_band",)),
    "bands.product_support_s": ("bands", ("product_support_radius",)),
    "gridio.write_s": ("gridio", ("write_gridform", "write_band_profile")),
    "gridio.read_s": ("gridio", ("read_gridform", "read_band_profile")),
    "construct.layered_profile_s": ("construct", ("layered_profile",)),
    "construct.sphere_map_s": ("construct", ("sphere_map",)),
    "construct.recursion_plan_s": ("construct", ("recursion_plan",)),
    "cli.main_s": ("cli", ("main",)),
}


def pass_layer_metrics(tracer, pass_index: int, wall: float) -> dict:
    from tracer import empty_totals, layer_totals, top_level_time

    totals = layer_totals(tracer.spans, pass_index)
    t = {layer: totals.get(layer) or empty_totals() for layer in LAYERS + ("job",)}
    counts = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = t[layer]["calls"]
        m[f"{layer}.busy_s"] = t[layer]["busy_s"]
    for name, (layer, fns) in FUNCTION_TIMES.items():
        m[name] = sum(t[layer]["by_name"].get(fn, 0.0) for fn in fns)
    restarts = counts.get("restarts", 0)
    searched = t["scalability"]["by_name"].get("search_embedding", 0.0)
    m["scalability.restarts"] = restarts
    m["scalability.s_per_restart"] = searched / restarts if restarts else 0.0
    m["scalability.converged_ratio"] = counts.get("converged", 0) / restarts if restarts else 0.0
    m["bands.fft_calls"] = t["bands"]["fft_calls"]
    m["bands.fft_points"] = t["bands"]["fft_points"]
    m["construct.fft_calls"] = t["construct"]["fft_calls"]
    m["cli.fft_calls"] = t["cli"]["fft_calls"]
    m["cli.exit1"] = counts.get("cli_exit1", 0)
    m["gridio.bytes"] = counts.get("gridio_bytes", 0)
    for layer in ("scalability", "bands", "construct", "cli"):
        m[f"{layer}.rss_rise_mb"] = t[layer]["rss_rise_mb"]
    m["bench.self_s"] = t["job"]["self_s"]
    m["trace.coverage"] = top_level_time(tracer.spans, pass_index) / wall
    return m


# -- one workload ----------------------------------------------------------------


def relative(passes, which: int) -> float:
    """Job-list time in probe units (which: 0 wall, 1 CPU).

    Each job's time is divided by the probe's time around it (the mean of
    the median repetitions just before and just after the job), and the
    median over passes of that ratio is summed over jobs.  On a host whose
    speed drifts by tens of percent within and between runs, the ratio
    cancels most of the drift that a plain time carries.
    """
    names = passes[0]["jobs"]
    return sum(
        median(p["jobs"][name][which] / p["jobs"][name][2 + which] for p in passes)
        for name in names
    )


def plain_time(passes, which: int) -> float:
    """Job-list time in seconds, each job at its median pass."""
    names = passes[0]["jobs"]
    return sum(median(p["jobs"][name][which] for p in passes) for name in names)


def run_workload(args, spec: dict) -> dict:
    import workloads
    from probe import HostProbe
    from tracer import Tracer, peak_rss_mb

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup = measure_setup(env) if not args.trace else None

    work = ROOT / ".perfbench" / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    attempted = failed = 0
    # every pass runs the same job list on the same inputs
    run_seed = workloads.derive_seed(args.seed, args.workload)
    # {"traced", "wall", "elapsed", "jobs": {name: (wall, cpu, probe wall, probe cpu)}, "layers"}
    passes = []
    probe = HostProbe(PROBE_KIND[args.workload])
    before = probe.time(1.0)  # the probe that precedes the first job
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 0
        if args.workload == "pipeline":
            jobs = workloads.pipeline(tracer, run_seed, args.size, work)
        else:
            jobs = getattr(workloads, args.workload)(tracer, run_seed, args.size)
        times = {}
        w0 = time.perf_counter()
        with tracer.recording(i) if traced else nullcontext():
            for name, job in jobs:
                attempted += 1
                j0, c0 = time.perf_counter(), time.process_time()
                try:
                    with tracer.job(name):
                        job()
                except Exception:  # count every failure, keep measuring
                    failed += 1
                    sys.stderr.write(f"perfbench: job {name} failed (pass {i}):\n")
                    traceback.print_exc()
                job_wall, job_cpu = time.perf_counter() - j0, time.process_time() - c0
                # the host's speed during the job: the probes on either side
                after = probe.time(job_wall)
                times[name] = (job_wall, job_cpu, (before[0] + after[0]) / 2,
                               (before[1] + after[1]) / 2)
                before = after
        elapsed = time.perf_counter() - w0
        wall = sum(t[0] for t in times.values())  # the probes left out
        layers = pass_layer_metrics(tracer, i, wall) if traced else None
        passes.append(
            {"traced": traced, "wall": wall, "elapsed": elapsed, "jobs": times, "layers": layers}
        )
        if len(passes) >= MIN_PASSES and time.perf_counter() + median(
            p["elapsed"] for p in passes
        ) > deadline:
            break
    peak = peak_rss_mb()
    shutil.rmtree(work)
    probe_s = median(t[2] for p in passes for t in p["jobs"].values())

    plain = [p for p in passes if not p["traced"]]
    diag = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": len(passes),
        "measured_s": time.perf_counter() - start,
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "host_probe_s": probe_s,
        "probe_kind": probe.kind,
        "machine": machine_info(),
    }
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [p["layers"] for p in traced_passes]
        values = {
            k: statistics.median_low(m[k] for m in per_pass)
            if isinstance(per_pass[0][k], int)
            else median(m[k] for m in per_pass)
            for k in per_pass[0]
        }
        # the high-water mark can only rise once, in the first traced pass
        for k in values:
            if k.endswith("rss_rise_mb"):
                values[k] = max(m[k] for m in per_pass)
        # each traced pass against the untraced pass right after it
        values["trace.overhead_s"] = median(
            t["wall"] - u["wall"] for t, u in zip(passes[0::2], passes[1::2])
        )
        values["host.probe_s"] = probe_s
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        diag["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "wall_rel": relative(plain, 0),
            "cpu_rel": relative(plain, 1),
            "peak_rss_mb": peak,
            "setup_s": setup[0],
        }
        diag["setup_raw_s"], diag["numpy_import_s"] = setup[1:]
        diag["wall_s"] = plain_time(plain, 0)
        diag["cpu_s"] = plain_time(plain, 1)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = set(wanted) - values.keys()
    if missing:
        die(f"metrics not measured: {sorted(missing)}")
    print(json.dumps(diag, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in wanted},
    }


# -- all workloads -----------------------------------------------------------------


def run_all(args) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(res.stderr)
            if res.returncode != 0:
                die(f"{workload} --trace {trace} exited {res.returncode}")
            out = json.loads(res.stdout.strip().splitlines()[-1])
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
            for name, m in out["metrics"].items():
                print(f"{workload:9s} {name:32s} {m['value']:>14.6g} {m['unit']}")
                combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke shrinks every job list, for the benchmark's own tests",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "lipdeg" / "cli.py").is_file():
        die(f"no lipdeg source tree at {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
        import lipdeg

        if Path(lipdeg.__file__).resolve().parent != ROOT / "src" / "lipdeg":
            die(f"imported lipdeg from {lipdeg.__file__}, not from this tree")
        result = run_workload(args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
