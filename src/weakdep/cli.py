"""Command-line front end.

Subcommands: coeffs (coefficient and tail-sum table), decompose (block
sums of a sample path), bound (tail bound over an x grid), verify
(Monte Carlo checks).  Exit codes: 0 all verdicts pass, 1 any check
failed, 2 usage or configuration error.  Reports are written atomically
(temp file + rename) and numbers are rendered with 17 significant digits
so a parse-back reproduces them exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

from . import __version__
from .blocks import block_scheme, decompose
from .bounds import BoundParams, slln_schedule, tail_bound
from .coefficients import gamma_sequence, long_run_variance
from .models import IID, ModelSpec, UniformOnInterval, almost_sure_bound, model_from_json, replicate_paths, sample_path
from .verify import (
    DOMINATED,
    ERROR_MULTIPLIER,
    VIOLATED,
    MCConfig,
    PiecewiseLinear,
    VerificationReport,
    check_lipschitz_cov,
    check_newman,
    check_quasi_association_counterexample,
    check_tail_domination,
    clt_ks_distance,
    empirical_process_path,
    estimate_gamma_operator,
    fclt_increment_check,
    make_report,
    slln_rate_fit,
)

REPORT_COLUMNS = tuple(field.name for field in dataclasses.fields(VerificationReport))

MAX_GRID_POINTS = 1_000_000


class ConfigError(Exception):
    """Invalid configuration detected before any computation starts."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".weakdep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(reports: Sequence[VerificationReport], fmt: str, path: Optional[str]) -> None:
    """Write verification reports as CSV or JSON.

    CSV columns are exactly check,param,estimate,se,bound,valid,verdict,
    seed,replicates; JSON is the same records as an array.  path None
    writes to stdout.
    """
    if fmt == "csv":
        text = _csv_text(REPORT_COLUMNS, [dataclasses.astuple(rep) for rep in reports])
    elif fmt == "json":
        text = json.dumps([dataclasses.asdict(rep) for rep in reports], indent=2) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    _write_or_print(text, path)


def parse_grid(spec: str) -> list[float]:
    """Parse start:stop:step, endpoints inclusive within 1e-12, at most
    MAX_GRID_POINTS points."""
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
    out = []
    for k in range(MAX_GRID_POINTS + 1):
        x = start + k * step
        if x > stop + 1e-12:
            return out
        out.append(min(x, stop))
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
    p_bound.add_argument("--n", type=int, default=4096)
    p_bound.add_argument("--theta", type=float, default=0.55)
    p_bound.add_argument("--alpha", type=float, default=2.0)
    p_bound.add_argument("--x-grid", default="0:4000:250")
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=_cmd_bound)

    p_ver = sub.add_parser("verify", help="Monte Carlo verification checks")
    p_ver.add_argument("--check", required=True, choices=CHECKS)
    p_ver.add_argument("--model", required=True, help="model JSON file (quasi uses only its law)")
    p_ver.add_argument("--replicates", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")
    p_ver.add_argument("--format", choices=("csv", "json"))
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--theta", type=float, default=0.55)
    p_ver.add_argument("--alpha", type=float, default=2.0)
    p_ver.add_argument("--x-grid")
    p_ver.add_argument("--t-grid", default="0.25,0.5,1")
    p_ver.add_argument("--times", default="0.25,0.5,1")
    p_ver.add_argument("--alpha2", type=float, default=1.0)
    p_ver.add_argument("--alpha1-grid", default="1:50:1")
    p_ver.add_argument("--cases", type=int, default=10)
    p_ver.add_argument("--s", type=float, default=0.3)
    p_ver.add_argument("--t", type=float, default=0.7)
    p_ver.add_argument("--n-grid", default="256,512,1024,2048,4096,8192,16384")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def _csv_text(header: Sequence[str], rows: Sequence[Sequence], footer: Optional[str] = None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if footer is not None:
        text += footer + "\n"
    return text


def _write_or_print(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _cmd_coeffs(args) -> int:
    model = _load_model(args.model)
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    gamma = gamma_sequence(model)
    rows = [(k, gamma.gamma(k), gamma.tail_sum(k)) for k in range(1, args.n_max + 1)]
    _write_or_print(_csv_text(("k", "gamma", "v"), rows), args.out)
    return 0


def _cmd_decompose(args) -> int:
    model = _load_model(args.model)
    scheme = block_scheme(args.n, args.p)
    path = sample_path(model, args.n, args.seed)
    dec = decompose(path, scheme)
    rows = [(j + 1, y) for j, y in enumerate(dec.blocks)]
    footer = (
        f"# z_odd={_fmt(dec.z_odd)} z_even={_fmt(dec.z_even)} remainder={_fmt(dec.remainder)}"
    )
    _write_or_print(_csv_text(("j", "Y"), rows, footer), args.out)
    return 0


def _cmd_bound(args) -> int:
    model = _load_model(args.model)
    c = almost_sure_bound(model)
    if c is None:
        raise ConfigError("bound evaluation needs a bounded model")
    sigma2 = long_run_variance(model)
    sched = slln_schedule(args.n, args.theta, args.alpha, sigma2, c)
    params = BoundParams(c=c, sigma2=sigma2, p_n=sched.p_n, d_n=sched.d_n, n=args.n)
    v_pn = gamma_sequence(model).tail_sum(sched.p_n)
    rows = []
    for x in parse_grid(args.x_grid):
        ev = tail_bound(x, params, v_pn)
        rows.append((x, ev.value, ev.valid))
    _write_or_print(_csv_text(("x", "bound", "valid"), rows), args.out)
    return 0


def _random_pl(rng) -> PiecewiseLinear:
    m = int(rng.integers(0, 3))
    bps = tuple(sorted(rng.uniform(-2.0, 2.0, m))) if m else ()
    slopes = tuple(rng.uniform(-2.0, 2.0, m + 1))
    return PiecewiseLinear(breakpoints=bps, slopes=slopes)


def random_cov_cases(model: ModelSpec, n: int, cases: int, seed: int):
    """Randomized (f, g, I, J) cases with disjoint index sets in 1..n."""
    import numpy as np

    rng = np.random.default_rng([seed, 202])
    out = []
    for _ in range(cases):
        f_spec, g_spec = _random_pl(rng), _random_pl(rng)
        size_i = int(rng.integers(1, 4))
        size_j = int(rng.integers(1, 4))
        perm = rng.permutation(n) + 1
        I = sorted(int(v) for v in perm[:size_i])
        J = sorted(int(v) for v in perm[size_i : size_i + size_j])
        out.append((f_spec, g_spec, I, J))
    return out


def _n(args, default: int) -> int:
    """--n, or the check's default when the flag is absent."""
    return default if args.n is None else args.n


def _floats(spec: str) -> list[float]:
    return [float(v) for v in spec.split(",") if v]


def _check_cov(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    n = _n(args, 24)
    paths = replicate_paths(model, n, cfg.replicates, cfg.seed)
    return [
        check_lipschitz_cov(model, f_spec, g_spec, I, J, n, cfg, paths=paths)
        for f_spec, g_spec, I, J in random_cov_cases(model, n, args.cases, args.seed)
    ]


def _check_tail(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    n = _n(args, 4096)
    if not 0.5 < args.theta < 1.0:
        raise ConfigError(f"theta must lie in (1/2, 1), got {args.theta}")
    scheme = block_scheme(n, max(1, math.floor(n ** args.theta)))
    grid = parse_grid(args.x_grid or "0:4000:250")
    return check_tail_domination(model, scheme, grid, cfg, alpha=args.alpha)


def _check_newman(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    return check_newman(model, _n(args, 8), _floats(args.t_grid), cfg)


def _check_quasi(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    law = model.law
    if not isinstance(law, UniformOnInterval):
        raise ConfigError("quasi check needs a model with a uniform innovation law")
    scan = check_quasi_association_counterexample(parse_grid(args.alpha1_grid), args.alpha2, law, cfg)
    found = scan.alpha1_found
    ok = found is not None and all(row.lweak_holds for row in scan.rows)
    estimate = float("nan") if found is None else found
    return [make_report("quasi", f"alpha2={scan.alpha2:g}", estimate, 0.0, scan.rows[-1].alpha1, ok, cfg)]


def _check_slln(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    fit = slln_rate_fit(model, [int(v) for v in args.n_grid.split(",") if v], cfg)
    lo, hi = -0.55, -0.45  # the strong-law rate n^(-1/2) up to a 0.05 window
    ok = lo <= fit.slope <= hi
    return [make_report("slln", f"q={fit.quantile_level:g}", fit.slope, fit.slope_se, hi, ok, cfg)]


def _check_clt(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    ks = clt_ks_distance(model, _n(args, 4096), cfg)
    ok = ks.verdict == DOMINATED
    return [make_report("clt", f"n={ks.n}", ks.ks_statistic, 0.0, ks.threshold, ok, cfg)]


def _check_fclt(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    return fclt_increment_check(model, _floats(args.times), _n(args, 4096), cfg)


def _check_emp(args, model: ModelSpec, cfg: MCConfig) -> list[VerificationReport]:
    s, t = args.s, args.t
    path = empirical_process_path(model, _n(args, 4096), [0.0, s, t, 1.0], cfg.seed)
    reports = [
        make_report("emp", label, value, 0.0, 0.0, value == 0.0, cfg)
        for label, value in (("zeta(0)", path.values[0]), ("zeta(1)", path.values[-1]))
    ]
    est, se = estimate_gamma_operator(model, s, t, cfg)
    # the limit covariance min(s, t) - s t is known only for the i.i.d. baseline
    iid = isinstance(model, IID)
    target = min(s, t) - s * t if iid else float("nan")
    ok = abs(est - target) <= ERROR_MULTIPLIER * se
    reports.append(make_report("emp", f"gamma({s:g},{t:g})", est, se, target, ok, cfg, valid=iid))
    return reports


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


def _cmd_verify(args) -> int:
    cfg = MCConfig(replicates=args.replicates, seed=args.seed)
    reports = CHECKS[args.check](args, _load_model(args.model), cfg)
    if not reports:
        raise ConfigError(f"verify --check {args.check} has no rows to report with these arguments")
    fmt = args.format
    if fmt is None:
        fmt = "json" if (args.out or "").endswith(".json") else "csv"
    emit_report(reports, fmt, args.out)
    return 1 if any(rep.verdict == VIOLATED for rep in reports) else 0


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return int(exc.code or 0)
    if args.list_checks:
        for name in CHECKS:
            print(name)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
