"""Benchmark of clembed: one workload, one seed, one run.

    python3 bench/run.py --workload bli-eval --seed 1 --seconds 20 --trace 0

Run from the root of a clembed checkout; clembed is imported from its
`src/`. The inputs are generated from --seed. The run sets up three times
(set-up time is reported as the median), then repeats whole rounds of the
workload's operations while another round still fits in --seconds (at
least one), checks the outputs of the first round against independent
recomputations, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
rounds alternate between untraced and traced (at least untraced, traced,
untraced), and the metrics are the per-layer totals of one traced round
plus the tracing overhead (traced round minus a warm untraced round); the
spans are written to bench/_out/. The line before the last
holds the run record: commit, BLAS library and threads, input sizes and
per-operation times. Exit status 2 means the benchmark could not run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")
BLAS_THREADS = 1        # fixed, and never more than the 2 cores measured on
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
              "align_s": "s", "bli_cosine_qps": "queries/s",
              "bli_csls_qps": "queries/s", "clir_qps": "queries/s",
              "bli_map": "MAP", "clir_map": "MAP"}


def per_layer_names() -> dict[str, str]:
    """Per-layer metric names and units, as listed in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over clembed's sources, naming the program when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "clembed")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def blas_info() -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": BLAS_THREADS, "numpy": np.__version__}


def layer_metrics(tracer, traced_rounds: int, names: dict[str, str]) -> dict:
    """Per-layer values of one traced round (totals over traced rounds / n)."""
    totals = tracer.summary()
    out = {}
    for name in names:
        if name.endswith(".mb_per_s"):
            base = name[: -len(".mb_per_s")]
            secs = totals.get(base + ".s", 0.0)
            out[name] = totals.get(base + ".mb", 0.0) / secs if secs else 0.0
        else:
            out[name] = totals.get(name, 0.0) / traced_rounds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the same operations and checks on tiny inputs")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "clembed", "__init__.py")):
        print(f"error: no clembed sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [src, HERE]

    import clembed
    import tracing
    import workloads
    if not os.path.abspath(clembed.__file__).startswith(src + os.sep):
        print(f"error: clembed imported from {clembed.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    workload = workloads.WORKLOADS[args.workload](args.size)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    names = per_layer_names() if args.trace else {}
    tracer = tracing.Tracer()
    try:
        setup_times, inputs = [], None
        for _ in range(SETUP_REPEATS):
            inputs = None               # let the previous copy go first
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)

        rounds, plain, traced_walls = [], [], []
        began = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rec = workloads.Round()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.run(inputs, rec)
            finally:
                rec.wall_s = time.perf_counter() - start
                tracer.uninstall()
            if traced:
                traced_walls.append(rec.wall_s)
            else:
                plain.append(rec)
            rounds.append(rec)
            spent = time.perf_counter() - began
            typical = statistics.median(r.wall_s for r in rounds)
            if spent + typical > args.seconds and not (args.trace and len(rounds) < 3):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = workload.check(inputs, rounds[0])
        metrics = workload.metrics(inputs, plain)
        sizes = workload.sizes(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["setup_s"] = import_s + statistics.median(setup_times)
    metrics["wall_s"] = statistics.median(r.wall_s for r in plain)
    metrics["peak_rss_mb"] = peak_rss_mb
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(not ok for r in rounds for _, _, ok in r.ops)

    if args.trace:
        layer = layer_metrics(tracer, len(traced_walls), names)
        layer["trace.wall_s"] = statistics.median(traced_walls)
        # against the untraced rounds after the first, which alone pays for
        # first-touch allocations, so both sides are equally warm
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(
            r.wall_s for r in plain[1:])
        shown = {n: {"value": layer[n], "unit": names[n]} for n in names}
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        shown = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "commit": commit(),
        "src_sha256": source_digest(), "blas": blas_info(),
        "inputs": sizes, "rounds": len(rounds), "traced_rounds": len(traced_walls),
        "import_s": import_s, "setup_times_s": setup_times,
        "end_to_end": metrics, "problems": problems, "notes": workload.notes,
        "operations": [[{"name": n, "s": t, "ok": ok} for n, t, ok in r.ops]
                       for r in rounds],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("commit", "src_sha256", "blas", "inputs",
                                              "rounds", "traced_rounds")}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
