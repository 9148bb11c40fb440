"""The benchmark's workloads and the checks on each op's report.

A workload is a fixed sequence of ``weakdep`` CLI ops over generated model
JSON files.  The seed only enters through each op's ``--seed``; shapes and
sizes are fixed here, so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

UNIFORM = {"variant": "uniform_on_interval", "a": -1.0, "b": 1.0}

MODELS = {
    "ma11": {"schema_version": 1, "variant": "moving_average", "coeffs": [1.0, 1.0], "law": UNIFORM},
    "ma3": {"schema_version": 1, "variant": "moving_average", "coeffs": [1.0, -0.5, 1.0], "law": UNIFORM},
    "bump": {
        "schema_version": 1,
        "variant": "cumsum_transform",
        "coeffs": [1.0, 1.0],
        "transform": {"variant": "gauss_bump_plus_x", "beta": 2.0},
        "law": {"variant": "truncated_gaussian", "bound": 1.5},
    },
}

VERIFY_COLUMNS = ("check", "param", "estimate", "se", "bound", "valid", "verdict", "seed", "replicates")

SHORT_REPLICATES = 50_000
LONG_REPLICATES = 2_500
LONG_N = 4096
SLLN_GRID = tuple(2**k for k in range(8, 17))
BOUND_GRID = (0.0, 4000.0, 0.1)
COEFFS_N_MAX = 100_000


@dataclass(frozen=True)
class Op:
    name: str
    model: str
    args: tuple[str, ...]  # CLI argv without --model, --seed and --out
    header: tuple[str, ...]
    rows: int
    replicates: int = 0  # Monte Carlo ops only
    n: int = 0  # path length per replicate, Monte Carlo ops only
    seeded: bool = True

    @property
    def values(self) -> int:
        """Innovations-driven values a Monte Carlo op generates, replicates x n."""
        return self.replicates * self.n

    def argv(self, model_path: str, seed: int, out: str) -> list[str]:
        argv = [*self.args, "--model", model_path, "--out", out]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


def _verify(check: str, model: str, rows: int, replicates: int, n: int, *extra: str) -> Op:
    args = ("verify", "--check", check, "--replicates", str(replicates), *extra)
    return Op(check, model, args, VERIFY_COLUMNS, rows, replicates, n)


def _grid(spec: tuple[float, float, float]) -> str:
    return ":".join(format(v, "g") for v in spec)


WORKLOADS = {
    # many short paths: one generator per replicate dominates (seeding-bound)
    "short-paths": (
        _verify("newman", "ma11", 3, SHORT_REPLICATES, 8, "--n", "8", "--t-grid", "0.25,0.5,1"),
        _verify("cov", "ma3", 10, SHORT_REPLICATES, 24, "--n", "24", "--cases", "10"),
    ),
    # few long paths: drawing, the filter, block sums and cumsum/quantile reductions
    "long-paths": (
        _verify(
            "tail", "ma11", 17, LONG_REPLICATES, LONG_N,
            "--n", str(LONG_N), "--theta", "0.55", "--alpha", "2", "--x-grid", "0:4000:250",
        ),
        _verify(
            "slln", "ma11", 1, LONG_REPLICATES, SLLN_GRID[-1],
            "--n-grid", ",".join(str(n) for n in SLLN_GRID),
        ),
        _verify("clt", "ma11", 1, LONG_REPLICATES, LONG_N, "--n", str(LONG_N)),
        _verify("fclt", "ma11", 6, LONG_REPLICATES, LONG_N, "--n", str(LONG_N), "--times", "0.25,0.5,1"),
    ),
    # no Monte Carlo: quadrature in models, bound evaluation and emission of many rows
    "analytic": (
        Op("decompose", "bump", ("decompose", "--n", "2", "--p", "1"), ("j", "Y"), 2),
        Op(
            "bound", "ma11",
            ("bound", "--n", str(LONG_N), "--theta", "0.55", "--alpha", "2", "--x-grid", _grid(BOUND_GRID)),
            ("x", "bound", "valid"),
            round((BOUND_GRID[1] - BOUND_GRID[0]) / BOUND_GRID[2]) + 1,
            seeded=False,
        ),
        Op("coeffs", "ma11", ("coeffs", "--n-max", str(COEFFS_N_MAX)), ("k", "gamma", "v"), COEFFS_N_MAX, seeded=False),
    ),
}

ALL_OPS = tuple(op.name for ops in WORKLOADS.values() for op in ops)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_report(op: Op, data: bytes, seed: int) -> tuple[list[str], list[str]]:
    """Check one op's report; returns (output problems, violated rows).

    Every report needs its documented header, the expected row count and
    finite numbers; verify reports also need a valid bound on every row
    and the op's seed and replicates, bound tables every row inside the
    bound's hypotheses, and the decompose footer must match its block sums.
    A verify row whose verdict is not DOMINATED (VIOLATED) is reported
    apart: it fails the op, but it is a Monte Carlo verdict, not a
    malformed output.
    """
    footer: list[str] = []

    def body():
        for line in io.StringIO(data.decode()):
            if line.startswith("#"):
                footer.append(line.strip())
            else:
                yield line

    reader = csv.reader(body())
    header = tuple(next(reader, ()))
    if header != op.header:
        return [f"header {list(header)} is not {list(op.header)}"], []
    problems: list[str] = []
    violated: list[str] = []
    is_verify = op.header == VERIFY_COLUMNS
    numeric = ("estimate", "se", "bound") if is_verify else tuple(c for c in op.header if c != "valid")
    blocks: list[float] = []
    count = 0
    for row in reader:
        count += 1
        if len(row) != len(op.header):
            problems.append(f"ragged row {row}")
            continue
        rec = dict(zip(op.header, row))
        if not all(_finite(rec[col]) for col in numeric):
            problems.append(f"non-finite value in row {row}")
        if rec.get("valid", "true") != "true":
            problems.append(f"bound hypotheses fail in row {row}")
        if is_verify:
            if rec["seed"] != str(seed) or rec["replicates"] != str(op.replicates):
                problems.append(f"seed/replicates {rec['seed']}/{rec['replicates']} at {rec['param']}")
            if rec["verdict"] == "VIOLATED":
                violated.append(rec["param"])
            elif rec["verdict"] != "DOMINATED":
                problems.append(f"verdict {rec['verdict']} at {rec['param']}")
        if op.name == "decompose" and _finite(rec["Y"]):
            blocks.append(float(rec["Y"]))
    if count != op.rows:
        problems.append(f"{count} rows, expected {op.rows}")
    if op.name == "decompose":
        problems += _check_decompose_footer(footer, blocks)
    elif footer:
        problems.append(f"unexpected footer {footer}")
    return problems, violated


def _check_decompose_footer(footer: list[str], blocks: list[float]) -> list[str]:
    if len(footer) != 1:
        return [f"expected one footer line, got {len(footer)}"]
    try:
        fields = dict(item.split("=", 1) for item in footer[0].lstrip("# ").split())
        sums = [fields[key] for key in ("z_odd", "z_even", "remainder")]
    except (KeyError, ValueError):
        return [f"malformed footer {footer[0]!r}"]
    if not all(_finite(v) for v in sums):
        return [f"non-finite footer {footer[0]!r}"]
    z_odd, z_even = float(sums[0]), float(sums[1])
    tol = 1e-12 * max(1.0, sum(abs(b) for b in blocks))
    if abs(z_odd - sum(blocks[0::2])) > tol or abs(z_even - sum(blocks[1::2])) > tol:
        return ["footer sums do not match the block sums"]
    return []
