"""Run one workload of the benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload offline_map --seed 1 --seconds 20 --trace 0

Workloads: ``offline_map``, ``live_stream``, ``serve_windows`` (see
README.md).  The seed makes the inputs; ``--seconds`` is how long the
measured pass runs.

With ``--trace 0`` the run sets the workload up :data:`SETUP_REPS` times
(``setup_s`` is the median, plus the import time), measures one pass,
checks its outputs and prints the end-to-end metrics.  With
``--trace 1`` it measures one untraced pass, then sets up again with
every layer's entry points wrapped (``perfbench/trace.py``), measures a
traced pass, checks it and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it start with ``#``: the preflight stamp, sample counts, check failures
and, for a traced run, the attribution of wall time to layers.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: Workload name -> (module, class) under ``perfbench``.
WORKLOADS = {
    "offline_map": ("offline_map", "OfflineMap"),
    "live_stream": ("live_stream", "LiveStream"),
    "serve_windows": ("serve_windows", "ServeWindows"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program(workload: str):
    """Import the program under test from ``src/`` and the workload.

    Returns the workload class and the seconds since process start.  The
    native kernel library is compiled on first use into the user cache
    directory; pointing that at ``.bench_build`` keeps the build inside
    the checkout.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        # Never fall back to an installed copy: the benchmark measures
        # the source tree it ships with.
        raise ImportError(f"no repro package under {src}")
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")
    sys.path[:0] = [str(src), str(ROOT)]
    import importlib

    from repro.native import provider_status

    module, name = WORKLOADS[workload]
    cls = getattr(importlib.import_module(f"perfbench.{module}"), name)
    provider_status()
    return cls, time.perf_counter() - _STARTED


def _preflight(args) -> dict:
    """Refuse to run without ``native-batch``; return the run's stamp."""
    import numpy
    from repro.core.engine import BACKENDS
    from repro.native import provider_status

    status = provider_status()
    if "native-batch" not in BACKENDS:
        raise SystemExit(
            "perfbench: refusing to run: the native-batch backend is not "
            f"registered (kernel provider: {status})"
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provider": status,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_samples(harness, run) -> None:
    from perfbench import stats

    for kind, n in harness.samples(run).items():
        support = ", ".join(
            f"p{pct} {'supported' if stats.percentile_supported(n, pct) else 'UNSUPPORTED'}"
            for pct in (50, 90)
        )
        print(f"# samples {kind}: {n} ({support})")


def _untraced(workload, args, import_s: float) -> dict:
    from perfbench import catalog

    setups, harness = [], None
    for _ in range(SETUP_REPS):
        if harness is not None:
            harness.close()
            harness = None
            gc.collect()
        t0 = time.perf_counter()
        harness = workload(args.seed)
        setups.append(time.perf_counter() - t0)
    try:
        run = harness.measure(args.seconds)
        peak = _peak_rss_mb()
        problems = harness.check(run)
        values, attempted, failed = harness.end_to_end(run)
        _report_samples(harness, run)
    finally:
        harness.close()
    values["setup_s"] = import_s + statistics.median(setups)
    values["peak_rss_mb"] = peak
    print("# setup_s reps " + " ".join(f"{s:.3f}" for s in setups) + f" + import {import_s:.3f}")
    return _result(problems, attempted, failed, catalog.render(values, catalog.END_TO_END))


def _layer_values(harness, run, totals, setup_totals, wall, selfs, untraced_wall) -> dict:
    from perfbench.trace import JOB, STAGES

    units = harness.units(run)

    def per(name):
        return totals[name][0] / units

    def calls(name):
        return totals[name][1] / units

    values = {f"core.engine.stage_{s}_s": per(f"core.engine.stage_{s}") for s in STAGES}
    traced_wall = wall / units
    values.update(
        {
            "events.simulate_s": setup_totals["events.simulate"][0],
            "events.render_s": setup_totals["events.render"][0],
            "events.render_calls": setup_totals["events.render"][1],
            "core.engine.hot_stage_s": values["core.engine.stage_P_Z0_s"]
            + values["core.engine.stage_P_Zi_R_s"],
            "core.detection.detect_s": per("core.detection.detect"),
            "core.detection.detect_calls": calls("core.detection.detect"),
            "native.kernel_s": per("native.kernel"),
            "native.kernel_calls": calls("native.kernel"),
            "core.mapping.plan_s": per("core.mapping.plan"),
            "core.mapping.run_segment_s": per("core.mapping.run_segment"),
            "core.mapping.run_segment_calls": calls("core.mapping.run_segment"),
            "core.mapping.merge_s": per("core.mapping.merge"),
            "core.mapping.fuse_s": per("core.mapping.fuse"),
            "serve.service.submit_s": per("serve.service.submit"),
            "serve.service.queue_wait_s": 0.0,
            "serve.service.segments_dispatched": 0,
            "serve.cache.segment_hit_ratio": 0.0,
            "serve.cache.get_s": per("serve.cache.get"),
            "serve.cache.put_s": per("serve.cache.put"),
            "serve.gateway.submit_s": per("serve.gateway.submit"),
            "serve.gateway.polls_per_job": 0.0,
            "serve.gateway.refusals": 0,
            "serve.stream.feed_s": per("serve.stream.feed"),
            "serve.stream.poll_updates_s": per("serve.stream.poll_updates"),
            "serve.stream.updates": 0,
            "loadgen.late_max_ms": 0.0,
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.unattributed_frac": selfs.get(JOB, 0.0) / wall,
        }
    )
    values.update(harness.layers(run, totals))
    return values


def _report_attribution(harness, run, wall, selfs) -> None:
    from perfbench.trace import JOB

    units = harness.units(run)
    print(f"# attribution: traced wall {wall / units:.4f} s per unit ({units} units)")
    for name, seconds in sorted(selfs.items(), key=lambda item: -item[1]):
        label = "unattributed" if name == JOB else name
        print(f"#   {label:<28} {seconds / units:9.4f} s {100 * seconds / wall:6.1f}%")


def _traced(workload, args) -> dict:
    from perfbench import catalog
    from perfbench.trace import Tracer

    harness = workload(args.seed)
    try:
        untraced_wall = harness.unit_wall(harness.measure(args.seconds))
    finally:
        harness.close()
    del harness
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        harness = workload(args.seed)
        try:
            setup_totals = tracer.totals()
            tracer.reset()
            run = harness.measure(args.seconds, tracer)
            totals = tracer.totals()
            wall, selfs = tracer.attribution()
            values = _layer_values(
                harness, run, totals, setup_totals, wall, selfs, untraced_wall
            )
            _report_attribution(harness, run, wall, selfs)
            problems = harness.check(run)
            _, attempted, failed = harness.end_to_end(run)
        finally:
            harness.close()
    finally:
        tracer.uninstall()
    return _result(problems, attempted, failed, catalog.render(values, catalog.PER_LAYER))


def _result(problems, attempted, failed, metrics) -> dict:
    for problem in problems:
        print(f"# check failed: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _parse(argv)
    try:
        workload, import_s = _import_program(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    print("# preflight " + json.dumps(_preflight(args)), flush=True)
    if args.trace:
        result = _traced(workload, args)
    else:
        result = _untraced(workload, args, import_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
