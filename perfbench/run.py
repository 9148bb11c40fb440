"""Run one weakdep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload short-paths --seed 0 --seconds 30 --trace 0

Run from the root of a weakdep source tree (the package is imported from
./src).  One client in a closed loop: this fresh interpreter calls
weakdep.cli.run(argv) in process, one op after another, and repeats the
workload's op sequence until --seconds have passed (at least a minimum
number of passes).  Each pass starts with the package's caches cleared,
as a CLI user starts cold.  BLAS/OpenMP threads are pinned to 1.
Untraced passes and the set-up children run under the host-speed meter
(meter.py), and wall_s and setup_s are reported at its reference speed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  Every op's report is
checked and its SHA-256 stored; digests must agree across all passes of a
run, traced or not.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics; the full record (machine,
versions, digests, per-pass times) goes to perfbench/out/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from meter import Meter  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import ALL_OPS, MODELS, VERIFY_COLUMNS, WORKLOADS, check_report, digest  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 5
MIN_PASSES = 3  # untraced passes with --trace 0
MIN_PAIRS = 2  # untraced/traced pass pairs with --trace 1
CHILD_TIMEOUT = 60

# fresh interpreter: import the CLI and load the workload's models, timed from
# inside with the host-speed meter running; prints [wall, own, normalized, kernel]
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from meter import Meter
meter = Meter()
meter.start()
t0 = time.perf_counter()
import weakdep.cli
from weakdep.models import model_from_json
for path in sys.argv[2:]:
    with open(path) as handle:
        model_from_json(handle.read())
wall = time.perf_counter() - t0
meter.stop()
print(repr([wall, *meter.normalize(wall), meter.kernel_s()]))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
IMPORT_GROUPS = ("numpy", "scipy", "weakdep", *(f"weakdep.{layer}" for layer in LAYERS), "other")
VERIFY_CHECKS = tuple(op.name for ops in WORKLOADS.values() for op in ops if op.header == VERIFY_COLUMNS)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def measure_setup(model_paths: list[str]) -> list[dict]:
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, HERE, *model_paths],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
        )
        wall, own, norm, kernel = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
        samples.append({"wall": wall, "own": own, "norm": norm, "kernel": kernel})
    return samples


def import_times() -> dict:
    """Self import time per module group, from python -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import weakdep.cli"],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if name == "weakdep" or name in totals:
            group = name
        elif top in ("numpy", "scipy"):
            group = top
        else:
            group = "other"
        totals[group] += int(self_us) * 1e-6
    return {f"setup.import.{group}_s": value for group, value in totals.items()}


def clear_caches(modules) -> None:
    for mod in modules:
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_pass(cli, modules, ops, model_paths, seed, workdir, tracer=None) -> dict:
    """One pass over the workload's ops; reports are checked after the timed part.

    An untraced pass runs under the host-speed meter; a traced one does not,
    so that no handler time lands in a span."""
    outs = [os.path.join(workdir, f"{op.name}.csv") for op in ops]
    for out in outs:
        if os.path.exists(out):
            os.unlink(out)
    clear_caches(modules)
    results = []
    meter = Meter() if tracer is None else None
    if meter is not None:
        meter.start()
    try:
        start = time.perf_counter()
        for op, out in zip(ops, outs):
            argv = op.argv(model_paths[op.model], seed, out)
            frame = None
            if tracer is not None:
                tracer.op = op.name
                frame = tracer.open(tracer.name_id(f"op.{op.name}"), None)
            error = None
            code = None
            op_start = time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception as exc:  # the op fails; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - op_start
            if frame is not None:
                tracer.close(frame)
            results.append({"op": op.name, "exit": code, "error": error, "seconds": elapsed})
        wall = time.perf_counter() - start
    finally:
        if meter is not None:
            meter.stop()
    result = {"traced": tracer is not None, "wall": wall, "ops": results, "outs": outs}
    if meter is not None:
        result["own"], result["norm"] = meter.normalize(wall)
        result["kernel"] = meter.kernel_s()
    return result


def traced_pass(tracer, *pass_args) -> dict:
    tracer.clear()
    tracer.install()
    try:
        result = run_pass(*pass_args, tracer)
    finally:
        tracer.uninstall()
    result["layers"] = layer_metrics(tracer)
    return result


class Checker:
    """Checks each op result; a report is parsed once per distinct digest."""

    def __init__(self, ops, seed):
        self.ops = {op.name: op for op in ops}
        self.seed = seed
        self.cache = {}
        self.digests = {op.name: set() for op in ops}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = []

    def check(self, result: dict, out: str) -> None:
        op = self.ops[result["op"]]
        self.attempted += 1
        problems, violated = [], []
        if result["error"] is not None:
            problems.append(result["error"])
        elif not os.path.exists(out):
            problems.append(f"exit {result['exit']} and no report")
        else:
            with open(out, "rb") as handle:
                data = handle.read()
            result["digest"] = key = digest(data)
            self.digests[op.name].add(key)
            if key not in self.cache:
                self.cache[key] = check_report(op, data, self.seed)
            problems, violated = (list(part) for part in self.cache[key])
            expected_exit = 1 if violated else 0
            if result["exit"] != expected_exit:
                problems.append(f"exit {result['exit']} with {len(violated)} VIOLATED rows")
        if problems or violated:
            self.failed += 1
            self.failures.append({"op": op.name, "problems": problems, "violated": violated})
        if problems:
            self.correct = False

    @property
    def reproducible(self) -> bool:
        return all(len(keys) <= 1 for keys in self.digests.values())


def layer_metrics(tr: Tracer) -> dict:
    calls, inc = tr.calls, tr.inclusive
    m = {}
    for stage in ("seed", "draw", "filter", "sample_path", "chf", "quad"):
        m[f"models.{stage}_s"] = inc(f"models.{stage}")
    for stage in ("seed", "sample_path", "chf", "quad"):
        m[f"models.{stage}_calls"] = calls(f"models.{stage}")
    paths = calls("models.sample_path")
    m["models.seed_per_path"] = calls("models.seed") / paths if paths else 0.0
    m["blocks.decompose_calls"] = calls("blocks.decompose")
    m["blocks.decompose_s"] = inc("blocks.decompose")
    for layer in LAYERS:
        m[f"{layer}.calls"] = tr.layer_calls[layer]
        m[f"{layer}.self_s"] = tr.layer_self[layer]
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.self_s"] = tr.op_layer_self[check, "verify"]
    m["cli.emit_s"] = inc("cli.emit")
    m["cli.load_model_s"] = inc("cli.load_model")
    for op in ALL_OPS:
        m[f"cli.{op}_s"] = inc(f"op.{op}")
    return m


SPECIAL_UNITS = {"models.seed_per_path": "ratio", "values_per_s": "1/s", "ops_failed_ratio": "ratio"}
PER_LAYER_NAMES = (
    *layer_metrics(Tracer()),
    *(f"setup.import.{group}_s" for group in IMPORT_GROUPS),
    "raw.wall_s",
    "raw.setup_s",
    "meter.kernel_s",
    "trace.wall_s",
    "trace.overhead_s",
    *SPECIAL_UNITS,
)
PER_LAYER_UNITS = {
    name: SPECIAL_UNITS.get(name) or ("count" if name.endswith("calls") else "s") for name in PER_LAYER_NAMES
}


def median_of(dicts: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        ints = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if ints else statistics.median(values)
    return out


def values_per_s(ops, passes) -> float:
    values = sum(op.values for op in ops)
    if not values:
        return 0.0
    mc = {op.name for op in ops if op.values}
    return statistics.median(values / sum(r["seconds"] for r in p["ops"] if r["op"] in mc) for p in passes)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: str):
    """HEAD of the source tree, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, passes: int, setup_samples: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "setup_runs": len(setup_samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "weakdep", "cli.py")):
        print(f"error: no weakdep source tree under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import importlib

    import weakdep.cli as cli

    modules = [importlib.import_module(f"weakdep.{layer}") for layer in LAYERS]
    ops = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        model_paths = {}
        for key in sorted({op.model for op in ops}):
            model_paths[key] = os.path.join(workdir, f"{key}.json")
            with open(model_paths[key], "w") as handle:
                json.dump(MODELS[key], handle, indent=2)
        setup_samples = measure_setup(sorted(model_paths.values()))
        imports = import_times() if args.trace else {}

        checker = Checker(ops, args.seed)
        tracer = Tracer() if args.trace else None
        plain, traced, cycles = [], [], []
        min_cycles = MIN_PAIRS if args.trace else MIN_PASSES
        deadline = time.perf_counter() + args.seconds
        # a cycle is one untraced pass, plus one traced pass with --trace 1;
        # stop at the cycle boundary nearest the deadline, after the minimum
        while len(cycles) < min_cycles or deadline - time.perf_counter() > 0.5 * statistics.median(cycles):
            cycle_start = time.perf_counter()
            plain.append(run_pass(cli, modules, ops, model_paths, args.seed, workdir))
            if tracer is not None:
                traced.append(traced_pass(tracer, cli, modules, ops, model_paths, args.seed, workdir))
            for result in (plain[-1], *traced[-1:]):
                for r, out in zip(result["ops"], result["outs"]):
                    checker.check(r, out)
            cycles.append(time.perf_counter() - cycle_start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.save(os.path.join(OUT, f"{args.workload}-spans.npz"))

        # wall_s and setup_s are at the reference speed; raw.* are the unscaled own times
        wall_s = statistics.median(p["norm"] for p in plain)
        setup_s = statistics.median(s["norm"] for s in setup_samples)
        raw_wall_s = statistics.median(p["own"] for p in plain)
        extra = {
            "values_per_s": values_per_s(ops, plain),
            "ops_failed_ratio": checker.failed / checker.attempted,
        }
        if args.trace:
            metrics = median_of([p["layers"] for p in traced])
            metrics.update(imports)
            metrics["raw.wall_s"] = raw_wall_s
            metrics["raw.setup_s"] = statistics.median(s["own"] for s in setup_samples)
            metrics["meter.kernel_s"] = statistics.median(p["kernel"] for p in plain)
            metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - raw_wall_s
            metrics.update(extra)
            units = PER_LAYER_UNITS
        else:
            metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
            units = END_TO_END_UNITS
        if set(metrics) != set(units):
            raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
        correct = checker.correct and checker.reproducible
        env = environment(args, len(plain) + len(traced), setup_samples)
        record = {
            "environment": env,
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "failures": checker.failures,
            "digests": {name: sorted(keys) for name, keys in checker.digests.items()},
            "metrics": {**metrics, **extra},
            "setup_samples": setup_samples,
            "passes": [{key: p[key] for key in ("traced", "wall", "own", "norm", "kernel", "ops") if key in p}
                       for p in plain + traced],
        }
        record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, "w") as handle:
            json.dump(record, handle, indent=2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} untraced/{len(traced)} traced setup_runs={len(setup_samples)}")
    print(f"# machine: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads=1 commit={env['git_commit']}")
    for name, keys in record["digests"].items():
        print(f"# digest {name} {' '.join(keys) or '-'}")
    for failure in checker.failures[:10]:
        print(f"# FAILED {failure}")
    for name, value in {**metrics, **extra}.items():
        print(f"{name} {value!r} {units.get(name, PER_LAYER_UNITS.get(name))}")
    print(f"# record {os.path.relpath(record_path, ROOT)}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
