"""One fresh process of the benchmark: a timed repetition, or the output checks.

    python3 perfbench/worker.py rep SPEC.json OUT.csv [--trace SPANS.jsonl]
    python3 perfbench/worker.py check SPEC.json OUT.csv [OUT.csv ...]

`rep` imports quelab from the checkout's src/, builds the configs, runs every
row back to back through `quelab.cli.run_experiment` (one thread, timings
on), then writes the table with `quelab.cli.write_csv` and prints one JSON
line.  Nothing is warmed up: module caches start cold, as in a CLI call.
`check` reads the tables of every repetition and prints the check results.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_quelab():
    """Import quelab from this checkout's src/ and nowhere else."""
    if not (SRC / "quelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quelab.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "quelab").resolve():
        sys.exit(f"perfbench: imported quelab from {cli.__file__}, not from {SRC}")
    return cli


def build_config(cli, spec: dict):
    """ExperimentConfig from one generated config dict."""
    from quelab.geometry import HeegnerPoint, PointH2, PointH3

    surface = spec["surface"]
    field_D = None if surface == "h2" else int(surface[len("bianchi("):-1])
    c = spec["center"]
    if c is None:
        center = None
    elif "a" in c:
        center = HeegnerPoint(c["a"], c["b"], c["c"])
    elif "r" in c:
        center = PointH3(complex(c["x"], c["y"]), c["r"])
    else:
        center = PointH2(c["x"], c["y"])
    extra = {k: spec[k] for k in ("seed", "order", "method", "mc_count",
                                  "moment_k", "kernel_dim") if k in spec}
    return cli.ExperimentConfig(
        kind=spec["kind"], surface=surface, field_D=field_D,
        t_grid=tuple(spec["t_grid"]), radius_rule=spec["radius_rule"],
        radius_value=spec["radius_value"], center=center, **extra)


def rep(spec_path: str, out_csv: str, spans_path: str | None) -> dict:
    cli = import_quelab()
    configs = [build_config(cli, s) for s in json.loads(Path(spec_path).read_text())]
    ready = time.monotonic()

    run = cli.run_experiment
    tracer = None
    if spans_path:
        from tracing import RUN, Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.span(RUN, run)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    rows = []
    for config in configs:
        rows.extend(run(config, threads=1, timings=True))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cli.write_csv(rows, out_csv)
    from quelab.zeta import default_backend
    out = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
           "row_ms": [r.wall_time_ms for r in rows],
           "zeta_cache_entries": default_backend().cache_size()}
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.dump(spans_path)
    return out


def environment() -> dict:
    """Interpreter, numpy and OpenBLAS versions, BLAS threads, cores, CPU model."""
    import ctypes
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv: list[str]) -> int:
    mode, spec_path = argv[0], argv[1]
    if mode == "rep":
        spans = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
        result = rep(spec_path, argv[2], spans)
    elif mode == "check":
        import checks
        cli = import_quelab()
        specs = json.loads(Path(spec_path).read_text())
        result = checks.run_checks([(s, build_config(cli, s)) for s in specs], argv[2:])
        result["env"] = environment()
    else:
        sys.exit(f"perfbench: unknown worker mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
