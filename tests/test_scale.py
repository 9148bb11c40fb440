"""Scale equivariance: the checks under an exact power-of-two rescaling.

Multiplying every coefficient of a moving average by 2^k multiplies every
path value by 2^k exactly in floating point, as long as nothing overflows
or goes subnormal.  A check then has a matched change of its options under
which its report keeps the same bits (a metamorphic relation), and where a
number leaves the float range the check must exit 2 with one line naming
it, never print a verdict.  The runs are on the MA(1, 1) model with
U(-1, 1) innovations scaled by 2^k, at a small size: newman, clt, fclt,
tail, emp and slln keep their relations at k = -60, -8, 8 and 60 through
cli.run.  cov keeps its relation at the same k through a library call of
its runner, since the CLI's random cases have breakpoints that do not
scale with the model; its exit-2 rows, like every other, go through
cli.run.
"""

import csv
import io

import pytest

from weakdep import MCConfig, MovingAverage, PiecewiseLinear, UniformOnInterval, model_to_json
from weakdep.cli import random_cov_cases, run
from weakdep.verify import _lipschitz_cov_rows

NEWMAN_T_GRID = (0.25, 0.5, 1.0)  # the verify default
TAIL_X_GRID = (0.0, 200.0, 25.0)  # start, stop, step


def _ma11(k):
    return MovingAverage(coeffs=(2.0**k, 2.0**k), law=UniformOnInterval(-1.0, 1.0))


def _model(k, tmp_path):
    path = tmp_path / f"ma11-scale{k}.json"
    path.write_text(model_to_json(_ma11(k)))
    return str(path)


def _csv(k, tmp_path, capsys, *options):
    """The report rows of verify with options on the model scaled by 2^k, as dicts of the CSV text."""
    assert run(["verify", *options, "--model", _model(k, tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return list(csv.DictReader(io.StringIO(out)))


def _newman_columns(k, tmp_path, capsys):
    grid = ",".join(repr(t * 2.0**-k) for t in NEWMAN_T_GRID)
    rows = _csv(k, tmp_path, capsys, "--check", "newman", "--n", "8", "--replicates", "2001", "--t-grid", grid)
    return [(row["estimate"], row["se"], row["bound"], row["verdict"]) for row in rows]


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_newman_is_scale_equivariant(k, tmp_path, capsys):
    # the t grid times 2^-k leaves the phases t x the same bits, and the bound's
    # t^2 and gamma_j carry 2^-2k and 2^2k: every column but param is unchanged
    assert _newman_columns(k, tmp_path, capsys) == _newman_columns(0, tmp_path, capsys)


def _rows(check, k, tmp_path, capsys):
    rows = _csv(k, tmp_path, capsys, "--check", check, "--n", "1024", "--replicates", "2000", "--seed", "0")
    return [(row["param"], float(row["estimate"]), float(row["se"]), float(row["bound"]), row["verdict"])
            for row in rows]


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_clt_is_scale_invariant(k, tmp_path, capsys):
    # S_n / sqrt(n) and sigma both carry 2^k, so their ratio, the Kolmogorov distance, its
    # threshold and the verdict are the bits of k = 0
    assert _rows("clt", k, tmp_path, capsys) == _rows("clt", 0, tmp_path, capsys)


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_fclt_is_scale_equivariant(k, tmp_path, capsys):
    # the increments carry 2^k, so every variance and covariance, its SE and its target
    # sigma^2 (u_s - u_{s-1}) carry 4^k exactly, and the verdicts are those of k = 0
    scaled = [(param, estimate * 4.0**k, se * 4.0**k, target * 4.0**k, verdict)
              for param, estimate, se, target, verdict in _rows("fclt", 0, tmp_path, capsys)]
    assert _rows("fclt", k, tmp_path, capsys) == scaled


def _tail_columns(k, tmp_path, capsys):
    grid = ":".join(repr(x * 2.0**k) for x in TAIL_X_GRID)
    rows = _csv(k, tmp_path, capsys, "--check", "tail", "--n", "1024", "--replicates", "2000", "--seed", "0",
                "--x-grid", grid)
    return [{name: text for name, text in row.items() if name != "param"} for row in rows]


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_tail_is_scale_invariant(k, tmp_path, capsys):
    # the x grid times 2^k: Z_odd > x compares the same bits, and in the bound t carries 2^-k
    # against 2^k in x and c and 4^k in sigma^2 and v(p_n), so the powers of two cancel;
    # every column but param is the text of k = 0
    assert _tail_columns(k, tmp_path, capsys) == _tail_columns(0, tmp_path, capsys)


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_emp_is_scale_invariant(k, tmp_path, capsys):
    # the marginal is estimated from paths that carry 2^k too, so every path value maps to
    # the same u and the report is the text of k = 0
    options = ("--check", "emp", "--n", "1024", "--replicates", "2000", "--seed", "0")
    assert _csv(k, tmp_path, capsys, *options) == _csv(0, tmp_path, capsys, *options)


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_slln_is_scale_invariant(k, tmp_path, capsys):
    # the quantiles of |S_n / n| carry 2^k, which the slope of their logs loses up to the
    # rounding of the logs: the bound and verdict of k = 0, its slope within 1e-14 and its
    # SE within a relative 1e-12 (1.1e-15 and 1e-13 measured at k = 60)
    options = ("--check", "slln", "--n-grid", "256,512,1024,2048", "--replicates", "2000", "--seed", "0")
    [scaled], [unscaled] = _csv(k, tmp_path, capsys, *options), _csv(0, tmp_path, capsys, *options)
    assert (scaled["bound"], scaled["verdict"]) == (unscaled["bound"], unscaled["verdict"])
    assert abs(float(scaled["estimate"]) - float(unscaled["estimate"])) <= 1e-14
    assert float(scaled["se"]) == pytest.approx(float(unscaled["se"]), rel=1e-12, abs=0.0)


def test_fclt_se_overflow_exits_two(tmp_path, capsys):
    # at 2^500 the increments and sigma^2 are finite, but the SE squares influence values of
    # about 2^1000: this printed six VIOLATED rows with SE inf and a numpy overflow warning
    argv = ["verify", "--check", "fclt", "--replicates", "2000", "--seed", "0", "--model", _model(500, tmp_path)]
    assert run(argv) == 2
    line = "fclt SE overflows at var(0,0.25]: its influence values square past the largest float"
    assert capsys.readouterr() == ("", f"error: {line}\n")


def _cov_columns(k):
    cases = [(PiecewiseLinear(tuple(b * 2.0**k for b in f.breakpoints), f.slopes),
              PiecewiseLinear(tuple(b * 2.0**k for b in g.breakpoints), g.slopes), I, J)
             for f, g, I, J in random_cov_cases(_ma11(0), 24, 10, 0)]
    rows = _lipschitz_cov_rows(_ma11(k), cases, 24, MCConfig(replicates=2000, seed=0))
    return [(row.param, row.estimate, row.se, row.bound, row.verdict) for row in rows]


@pytest.mark.parametrize("k", [-8, 8, 60, -60])
def test_cov_is_scale_equivariant(k):
    # the breakpoints times 2^k keep the slopes, so f and g of the index-set sums carry 2^k
    # exactly, and the covariance, its SE and the bound (the gamma_k carry 4^k) carry 4^k
    scaled = [(param, estimate * 4.0**k, se * 4.0**k, bound * 4.0**k, verdict)
              for param, estimate, se, bound, verdict in _cov_columns(0)]
    assert _cov_columns(k) == scaled


@pytest.mark.parametrize("check, k, line", [
    # the SE squares influence values of about 2^1032: ten VIOLATED rows with SE inf
    ("cov", 256, "cov SE overflows at I=[6],J=[24] although its f and g values are finite: model scale too large"),
    # f * g overflows, and numpy's warning escaped cli.run under -W error
    ("cov", 520, "cov estimate overflows at I=[6],J=[24] although its f and g values are finite: "
                 "model scale too large"),
    # the squared influence values underflow: a zero-bound row read VIOLATED on an SE of 0
    ("cov", -300, "cov SE underflows to 0 at I=[8, 19, 21],J=[5] with a nonzero estimate: model scale too small"),
    # six DOMINATED rows with SE 0, passing only through the b(n) sigma^2 allowance
    ("fclt", -300, "fclt SE underflows to 0 at var(0,0.25] with a nonzero estimate: model scale too small"),
])
def test_float_range_exits_two(check, k, line, tmp_path, capsys, monkeypatch):
    # the first case that leaves the float range is refused, on one thread or two
    argv = ["verify", "--check", check, "--replicates", "2000", "--seed", "0", "--model", _model(k, tmp_path)]
    if check == "fclt":
        argv += ["--n", "1024"]
    for workers in (1, 2):
        monkeypatch.setattr("weakdep.models._WORKERS", workers)
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n"), workers
