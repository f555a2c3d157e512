"""urbanflows benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {train,generate,evaluate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a shorter pass twice, untraced and
then traced, and prints the per-layer metrics.  Both print an environment
record first and the result object as the last line of standard output.
See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads.  One thread: on two cores the
# default (two) was no faster for these matrix sizes and spread more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# end-to-end metric -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cli_s": "s",
    "op_ms": "ms",
    "op_p90_ms": "ms",
    "aux_ms": "ms",
    "nll_nats": "nats",
}


def _import_package():
    """Import urbanflows from this checkout's src/ or fail."""
    sys.path.insert(0, SRC)
    try:
        import urbanflows
    except ImportError as exc:
        raise SystemExit(f"error: cannot import urbanflows from {SRC}: {exc}")
    where = os.path.realpath(urbanflows.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: urbanflows imported from {where}, not from {SRC}")


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None.

    Loading the library by path returns the copy numpy already loaded."""
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(setup_times, result):
    """The end-to-end metric values of one untraced run (None if missing).

    Timings are means of the run's samples.  The host's speed switches
    every few seconds between states about 1.5x apart; the median of a
    run's samples jumps from one state to the other, while the mean moves
    with the share of the run spent in each, and spread less from run to
    run (see perfbench/README.md)."""
    cli, op, aux = (result.samples.get(k, []) for k in ("cli", "op", "aux"))
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_s": statistics.fmean(cli) if cli else None,
        "op_ms": statistics.fmean(op) * 1000.0 if op else None,
        "op_p90_ms": _p90(op) * 1000.0 if len(op) > 1 else None,
        "aux_ms": statistics.fmean(aux) * 1000.0 if aux else None,
        "nll_nats": result.nll,
    }


def run(workload, seed, seconds, trace, work, scale=None):
    """One benchmark run; returns (result object, info dict)."""
    import layers
    import workloads
    from tracer import Tracer

    scale = scale or (workloads.TRACED if trace else workloads.FULL)
    run_pass = workloads.PASSES[workload]
    ledger = workloads.Ledger()
    info = {"workload": workload, "seed": seed, "trace": trace}

    if not trace:
        # evaluate spends its time on CLI calls; generate times the same
        # set-up code three times
        repeats = 1 if workload == "evaluate" else scale.setup_repeats
        setup_times, checkpoints = [], set()
        for _ in range(repeats):
            start = time.perf_counter()
            st = workloads.setup(workload, scale, seed, work)
            setup_times.append(time.perf_counter() - start)
            if workload != "train":
                checkpoints.add(workloads.read_bytes(st.ckpt_path))
        if workload == "generate":
            ledger.check("set-up determinism", None if len(checkpoints) == 1
                         else "set-up checkpoints differ between repeats")
        result = run_pass(st, scale, seconds, ledger)
        metrics = end_to_end(setup_times, result)
        info["samples_s"] = result.samples
        units = END_TO_END
    else:
        st = workloads.setup(workload, scale, seed, work)
        start = time.perf_counter()
        run_pass(st, scale, 0, ledger)
        untraced = time.perf_counter() - start
        tracer = Tracer(layers.BUCKETS, layers.counters())
        tracer.install()
        try:
            start = time.perf_counter()
            result = run_pass(st, scale, 0, ledger, tracer)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        metrics = layers.traced_metrics(workload, tracer.summary(), result.ops)
        metrics.update(layers.probe_metrics(st.rc, seed, scale.probe_reps))
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        info["ops"] = result.ops
        info["spans"] = len(tracer.spans)
        units = layers.PER_LAYER_UNITS

    info.update(result.info)
    missing = sorted(k for k in units if metrics.get(k) is None)
    ledger.check("every metric measured", f"missing {missing}" if missing else None)
    info["failures"] = ledger.failures
    out = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": float(metrics.get(k) or 0.0), "unit": u}
                    for k, u in units.items()},
    }
    return out, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    print(json.dumps({"environment": environment()}), flush=True)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        out, info = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"info": info}, default=float))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
