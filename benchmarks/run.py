"""Benchmark of the rankgate pipeline, driven through ``rankgate.cli.main``.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload eval-mixed --seed 1 --seconds 30 --trace 0

The process sets up the workload's inputs from ``--seed`` (several times,
to time set-up), then repeats whole passes of the workload for about
``--seconds`` seconds and checks the outputs. With ``--trace 0`` it reports
the end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead. The last
line of stdout is the result as one JSON object. A full record of the run,
and with ``--trace 1`` its spans, is written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# One process, and a BLAS thread count fixed before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_PASSES = 3


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def set_up(workload, work: Path, seed: int, repeats: int):
    """Import rankgate afresh and write the inputs, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m.split(".")[0] == "rankgate"]:
            del sys.modules[name]
        start = time.perf_counter()
        rg = importlib.import_module("rankgate")
        importlib.import_module("rankgate.cli")
        workload.prepare(rg, work, seed)
        times.append(time.perf_counter() - start)
    return rg, times


class Passes:
    """Runs passes and keeps their times, failures and output bytes."""

    def __init__(self, rg, workload, work: Path):
        self.rg = rg
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_outputs: dict[str, bytes] = {}
        self.problems: list[str] = []

    def run(self, tracer=None) -> float:
        capture = not self.first_outputs
        start = time.perf_counter()
        if tracer is None:
            codes = self.workload.run_pass(self.rg, self.work, capture)
        else:
            with tracer, tracer.span("pass"):
                codes = self.workload.run_pass(self.rg, self.work, capture)
        elapsed = time.perf_counter() - start
        self.attempted += len(codes)
        self.failed += sum(1 for c in codes if c != 0)
        outputs = {
            name: (self.work / name).read_bytes() if (self.work / name).is_file() else None
            for name in self.workload.outputs
        }
        self.problems += [f"{name} was not written" for name, data in outputs.items() if data is None]
        if capture:
            self.first_outputs = outputs
        else:
            self.problems += [
                f"{name} differs between passes"
                for name, data in outputs.items()
                if data != self.first_outputs[name]
            ]
        return elapsed


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        rg, setup_times = set_up(workload, work, args.seed, repeats)
        passes = Passes(rg, workload, work)
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        spans: list = []
        start = time.perf_counter()
        while True:
            plain.append(passes.run())
            if args.trace:
                tracer = tracing.Tracer()
                traced.append(passes.run(tracer))
                layers.append(tracer.metrics())
                spans.append(tracer.dump())
            per_round = statistics.median(plain) + (statistics.median(traced) if traced else 0)
            elapsed = time.perf_counter() - start
            if len(plain) >= MIN_PASSES and elapsed + per_round > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = passes.problems
        try:
            problems += workload.check(rg, work, passes.first_outputs)
        except Exception as exc:  # noqa: BLE001 a check that cannot run is a failed check
            problems.append(f"checks could not run: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        metrics["trace.overhead_pct"] = 100 * (
            statistics.median(traced) / statistics.median(plain) - 1
        )
        values = {n: {"value": v, "unit": tracing.UNITS[n]} for n, v in metrics.items()}
    else:
        values = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": values,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setup_times,
        "pass_s": plain,
        "traced_pass_s": traced,
        "outputs_sha256": {
            name: hashlib.sha256(data).hexdigest()
            for name, data in passes.first_outputs.items()
            if data is not None
        },
        "problems": problems,
        "result": result,
    }
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / f"SPANS_{label}.json").write_text(json.dumps(spans) + "\n")
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "rankgate" / "__init__.py").is_file():
        print(f"error: no rankgate package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    record, result = run(args)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, digest in record["outputs_sha256"].items():
        print(f"sha256 {name} {digest}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
