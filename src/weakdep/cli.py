"""Command-line front end.

Subcommands: coeffs (coefficient and tail-sum table), decompose (block
sums of a sample path), bound (tail bound over an x grid), verify (Monte
Carlo checks; each adapter checks its options and calls weakdep.verify,
which draws any paths and builds the rows).  Exit codes: 0 all verdicts
pass, 1 any check failed, 2 usage or configuration error.  Reports are
written atomically (temp file + rename) and numbers are rendered with 17
significant digits so a parse-back reproduces them exactly.  A CSV report
is formatted and written a fixed number of rows at a time, to stdout or
into the temp file that is renamed once the last row is in, so the memory
it takes does not grow with its row count.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
import tempfile
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .blocks import block_scheme, decompose
from .bounds import _block_length, tail_bound
from .coefficients import gamma_sequence
from .models import ModelSpec, QuadratureError, model_from_json, sample_path
from .verify import (
    VIOLATED,
    MCConfig,
    PiecewiseLinear,
    VerificationReport,
    check_empirical_process,
    check_newman,
    check_quasi_association_counterexample,
    check_tail_domination,
    clt_ks_distance,
    fclt_increment_check,
    _lipschitz_cov_rows,
    _slln_grid,
    slln_rate_fit,
)

REPORT_COLUMNS = tuple(field.name for field in dataclasses.fields(VerificationReport))

MAX_GRID_POINTS = 1_000_000
# rows per CSV piece: a report's transient Python objects stay this many rows long
_BATCH_ROWS = 16_384
_D_N_OVERFLOW = "--alpha {:g} is too large: d_n overflows"


class ConfigError(Exception):
    """Invalid configuration detected before any computation starts."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def _atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces, one after another, to a temp file beside path
    and rename it to path once the last piece is in; on any error the temp
    file is removed and path is left as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".weakdep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(reports: Sequence[VerificationReport], fmt: str, path: Optional[str]) -> None:
    """Write verification reports as CSV or JSON.

    CSV columns are exactly check,param,estimate,se,bound,valid,verdict,
    seed,replicates; JSON is the same records as an array, with a float
    that is not finite written as the string its CSV cell holds ("nan",
    "inf", "-inf"): JSON has no such number.  path None writes to stdout.
    """
    if fmt == "csv":
        pieces = _csv_text(REPORT_COLUMNS, [[getattr(rep, name) for rep in reports] for name in REPORT_COLUMNS])
    elif fmt == "json":
        records = [{name: _json_value(getattr(rep, name)) for name in REPORT_COLUMNS} for rep in reports]
        pieces = (json.dumps(records, indent=2, allow_nan=False) + "\n",)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    _write_or_print(pieces, path)


def parse_grid(spec: str) -> list[float]:
    """Parse start:stop:step, endpoints inclusive within 1e-12 steps, at
    most MAX_GRID_POINTS points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid has non-numeric parts: {spec!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"grid needs finite start, stop and step, got {spec!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"grid needs step > 0 and stop >= start, got {spec!r}")
    # point k is start + k*step up to the first beyond stop + 1e-12*step; the count guess
    # falls short when start + k*step rounds (a huge start), so a miss retries at the limit
    span = (stop - start) / step
    guess = int(span) + 2 if span < MAX_GRID_POINTS else MAX_GRID_POINTS + 1
    for count in (guess, MAX_GRID_POINTS + 1):
        x = start + np.arange(count) * step
        beyond = np.flatnonzero(x > stop + 1e-12 * step)
        if beyond.size:
            return np.where(stop < x, stop, x)[: beyond[0]].tolist()
    raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points: {spec!r}")


def _load_model(path: str) -> ModelSpec:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read model file: {exc}") from exc
    try:
        return model_from_json(text)
    except ValueError as exc:
        raise ConfigError(f"bad model file {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weakdep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"weakdep {__version__}")
    parser.add_argument("--list-checks", action="store_true", help="list verify checks and exit")
    sub = parser.add_subparsers(dest="command")

    p_coeffs = sub.add_parser("coeffs", help="dependence coefficient and tail-sum table")
    p_coeffs.add_argument("--model", required=True)
    p_coeffs.add_argument("--n-max", type=int, default=10)
    p_coeffs.add_argument("--out")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_dec = sub.add_parser("decompose", help="block decomposition of one sample path")
    p_dec.add_argument("--model", required=True)
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--p", type=int, required=True)
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=_cmd_decompose)

    p_bound = sub.add_parser("bound", help="tail bound over an x grid")
    p_bound.add_argument("--model", required=True)
    # bound evaluates the tail check's bound, so it reads the tail check's options
    for name, default in _options(_check_tail).items():
        p_bound.add_argument(_flag(name), type=type(default), default=default)
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=_cmd_bound)

    p_ver = sub.add_parser("verify", help="Monte Carlo verification checks")
    p_ver.add_argument("--check", required=True, choices=CHECKS)
    p_ver.add_argument("--model", required=True, help="model JSON file (quasi uses only its law)")
    p_ver.add_argument("--replicates", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")
    p_ver.add_argument("--format", choices=("csv", "json"))
    for name, default in _options(*CHECKS.values()).items():
        p_ver.add_argument(_flag(name), type=type(default))
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def _cells(col):
    """The printf spec and the cells of one column: a float64 array as Python
    floats for %.17g, a range of ints for %d, a bool array as true/false and a
    list value by value through _fmt and _quote, both for %s."""
    if isinstance(col, range):
        return "%d", col
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return "%.17g", col.tolist()
    if isinstance(col, np.ndarray) and col.dtype == np.bool_:
        return "%s", map(("false", "true").__getitem__, col.tolist())
    return "%s", map(_quote, map(_fmt, col))


def _quote(cell: str) -> str:
    """cell as the csv module's minimal quoting writes it: in double quotes, each
    one doubled, when it holds a comma, a double quote or a newline."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_text(header: Sequence[str], columns: Sequence, footer: Optional[str] = None) -> Iterator[str]:
    """CSV of two or more equal-length columns, the bytes csv.writer writes for the
    cells of _cells with a newline line terminator, as text pieces: the header,
    one piece per _BATCH_ROWS rows and the footer.  A batch is one printf
    template, the columns' specs repeated once per row, filled by one % over the
    cells of the columns' slices in row order, so no piece holds more than
    _BATCH_ROWS rows however long the columns are.  (csv writes an empty cell as
    "" when it is the only field of its row; no report has a single column.)
    """
    yield ",".join(map(_quote, header)) + "\n"
    rows = len(columns[0])
    for start in range(0, rows, _BATCH_ROWS):
        specs, cells = zip(*(_cells(col[start : start + _BATCH_ROWS]) for col in columns))
        template = (",".join(specs) + "\n") * min(_BATCH_ROWS, rows - start)
        yield template % tuple(chain.from_iterable(zip(*cells)))
    if footer is not None:
        yield footer + "\n"


def _write_or_print(pieces: Iterable[str], path: Optional[str]) -> None:
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        _atomic_write(path, pieces)


def _cmd_coeffs(args) -> int:
    model = _load_model(args.model)
    gamma = gamma_sequence(model)
    # gamma_k and v(k) are 0 beyond the last nonzero coefficient
    known = min(len(gamma.values), args.n_max)
    g, v = np.zeros(args.n_max), np.zeros(args.n_max)
    g[:known] = gamma.values[:known]
    v[:known] = [gamma.tail_sum(k) for k in range(1, known + 1)]
    _write_or_print(_csv_text(("k", "gamma", "v"), (range(1, args.n_max + 1), g, v)), args.out)
    return 0


def _cmd_decompose(args) -> int:
    model = _load_model(args.model)
    scheme = block_scheme(args.n, args.p)
    path = sample_path(model, args.n, args.seed)
    dec = decompose(path, scheme)
    footer = (
        f"# z_odd={_fmt(dec.z_odd)} z_even={_fmt(dec.z_even)} remainder={_fmt(dec.remainder)}"
    )
    _write_or_print(_csv_text(("j", "Y"), (range(1, len(dec.blocks) + 1), dec.blocks), footer), args.out)
    return 0


def _cmd_bound(args) -> int:
    x, value, valid = _tail(tail_bound, _load_model(args.model), args.n, args.theta, args.alpha, args.x_grid)
    _write_or_print(_csv_text(("x", "bound", "valid"), (x, value, valid)), args.out)
    return 0


def _random_pl(rng) -> PiecewiseLinear:
    m = int(rng.integers(0, 3))
    bps = tuple(sorted(rng.uniform(-2.0, 2.0, m))) if m else ()
    slopes = tuple(rng.uniform(-2.0, 2.0, m + 1))
    return PiecewiseLinear(breakpoints=bps, slopes=slopes)


def random_cov_cases(model: ModelSpec, n: int, cases: int, seed: int):
    """Randomized (f, g, I, J) cases with disjoint index sets in 1..n, for n >= 2:
    I holds at most n - 1 indices, so J is never empty."""
    rng = np.random.default_rng([seed, 202])
    out = []
    for _ in range(cases):
        f_spec, g_spec = _random_pl(rng), _random_pl(rng)
        size_i = min(int(rng.integers(1, 4)), n - 1)
        size_j = int(rng.integers(1, 4))
        perm = rng.permutation(n) + 1
        I = sorted(int(v) for v in perm[:size_i])
        J = sorted(int(v) for v in perm[size_i : size_i + size_j])
        out.append((f_spec, g_spec, I, J))
    return out


def _list(spec: str, kind: type, option: str) -> list:
    """The comma-separated entries of spec as kind; a float entry must be finite."""
    try:
        values = [kind(v) for v in spec.split(",") if v]
    except ValueError:
        raise ConfigError(f"{option} must be a comma-separated list of {kind.__name__}s, got {spec!r}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"{option} entries must be finite, got {spec!r}")
    return values


def _check_cov(model: ModelSpec, cfg: MCConfig, *, n=24, cases=10) -> list[VerificationReport]:
    if n < 2:
        raise ConfigError(f"--n must be at least 2 for two disjoint index sets, got {n}")
    gamma_sequence(model)  # refuses a cumulative-sum model before its cases are built
    return _lipschitz_cov_rows(model, random_cov_cases(model, n, cases, cfg.seed), n, cfg)


def _tail(evaluate, model: ModelSpec, n: int, theta: float, alpha: float, x_grid: str):
    """evaluate(model, scheme, x grid, alpha=alpha) on blocks of the rate schedules'
    length p_n = floor(n^theta); a d_n overflow is a usage error."""
    scheme = block_scheme(n, _block_length(n, theta))
    try:
        return evaluate(model, scheme, parse_grid(x_grid), alpha=alpha)
    except OverflowError:
        raise ConfigError(_D_N_OVERFLOW.format(alpha)) from None


def _check_tail(model: ModelSpec, cfg: MCConfig, *, n=4096, theta=0.55, alpha=2.0,
                x_grid="0:4000:250") -> list[VerificationReport]:
    return _tail(partial(check_tail_domination, cfg=cfg), model, n, theta, alpha, x_grid)


def _check_newman(model: ModelSpec, cfg: MCConfig, *, n=8, t_grid="0.25,0.5,1") -> list[VerificationReport]:
    return check_newman(model, n, _list(t_grid, float, "--t-grid"), cfg)


def _check_quasi(model: ModelSpec, cfg: MCConfig, *, alpha1_grid="1:50:1", alpha2=1.0) -> list[VerificationReport]:
    grid = parse_grid(alpha1_grid)
    if grid[0] <= 0.0:  # parse_grid's points are finite and increasing
        raise ConfigError(f"--alpha1-grid points must be positive, got {alpha1_grid!r}")
    if not 0.0 < alpha2 < math.inf:
        raise ConfigError(f"--alpha2 must be finite and positive, got {alpha2:g}")
    try:
        return check_quasi_association_counterexample(grid, alpha2, model.law, cfg)
    except OverflowError:
        raise ConfigError(
            f"--alpha1-grid start {grid[0]:g} plus --alpha2 {alpha2:g} is too large: ||f||^2 overflows"
        ) from None


def _check_slln(model: ModelSpec, cfg: MCConfig, *,
                n_grid="256,512,1024,2048,4096,8192,16384") -> list[VerificationReport]:
    grid = _list(n_grid, int, "--n-grid")
    _slln_grid(grid, "--n-grid")
    return slln_rate_fit(model, grid, cfg)


def _check_clt(model: ModelSpec, cfg: MCConfig, *, n=4096) -> list[VerificationReport]:
    return clt_ks_distance(model, n, cfg)


def _check_fclt(model: ModelSpec, cfg: MCConfig, *, n=4096, times="0.25,0.5,1") -> list[VerificationReport]:
    return fclt_increment_check(model, _list(times, float, "--times"), n, cfg)


def _check_emp(model: ModelSpec, cfg: MCConfig, *, n=4096, s=0.3, t=0.7) -> list[VerificationReport]:
    for option, value in (("--s", s), ("--t", t)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{option} must lie in [0, 1], got {value:g}")
    return check_empirical_process(model, n, s, t, cfg)


# verify checks by name, in --list-checks order
CHECKS = {
    "cov": _check_cov,
    "tail": _check_tail,
    "newman": _check_newman,
    "quasi": _check_quasi,
    "slln": _check_slln,
    "clt": _check_clt,
    "fclt": _check_fclt,
    "emp": _check_emp,
}


def _options(*checks) -> dict:
    """The options the given verify checks read, name -> default: their keyword-only parameters."""
    params = [p for check in checks for p in inspect.signature(check).parameters.values()]
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_verify(args) -> int:
    check = CHECKS[args.check]
    given = {name: getattr(args, name) for name in _options(*CHECKS.values()) if getattr(args, name) is not None}
    if unread := [_flag(name) for name in given if name not in _options(check)]:
        raise ConfigError(f"verify --check {args.check} does not read {', '.join(unread)}")
    cfg = MCConfig(replicates=args.replicates, seed=args.seed)
    reports = check(_load_model(args.model), cfg, **given)
    if not reports:
        raise ConfigError(f"verify --check {args.check} has no rows to report with these arguments")
    fmt = args.format or ("json" if (args.out or "").endswith(".json") else "csv")
    emit_report(reports, fmt, args.out)
    return 1 if any(rep.verdict == VIOLATED for rep in reports) else 0


# the options that size an array, a loop or a list, each with its upper limit: past an index
# numpy and float arithmetic fail naming no option, below 0 n ** theta is complex, and
# random_cov_cases builds its whole case list before it checks the first case
_SIZE_LIMITS = {"n": sys.maxsize, "n_max": sys.maxsize, "replicates": sys.maxsize, "cases": MAX_GRID_POINTS,
                "n_grid": sys.maxsize}


def _check_sizes(args) -> None:
    """Every size option given lies in [1, its limit], and so does each --n-grid entry."""
    for name, limit in _SIZE_LIMITS.items():
        value = getattr(args, name, None)
        if isinstance(value, str):  # --n-grid, a list of sizes
            if not all(1 <= v <= limit for v in _list(value, int, _flag(name))):
                raise ConfigError(f"{_flag(name)} entries must lie in [1, {limit}]")
        elif value is not None and not 1 <= value <= limit:
            raise ConfigError(f"{_flag(name)} must lie in [1, {limit}]")


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return int(exc.code or 0)
    if args.list_checks:
        for name, check in CHECKS.items():
            print(name, *(f"{_flag(o)}={default}" for o, default in _options(check).items()))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_sizes(args)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (ConfigError, ValueError, ArithmeticError, QuadratureError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
