import csv
import io
import json
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (IID, CumSumTransform, GaussBumpPlusX, MCConfig, MovingAverage, NegExp, Rademacher,
                     TruncatedGaussian, UniformOnInterval, VerificationReport, almost_sure_bound, block_scheme, check_newman, gamma_sequence,
                     long_run_variance, model_to_json)
from weakdep.cli import (CHECKS, MAX_GRID_POINTS, _BATCH_ROWS, ConfigError, _csv_text, _fmt, _options, emit_report,
                         parse_grid, run)

MA_JSON = model_to_json(MovingAverage(coeffs=(1.0, -0.5, 1.0), law=UniformOnInterval(-1, 1)))
MA11_JSON = model_to_json(MovingAverage(coeffs=(1.0, 1.0), law=UniformOnInterval(-1, 1)))
IID_JSON = model_to_json(IID(UniformOnInterval(-1, 1)))
IID_RADEMACHER_JSON = model_to_json(IID(Rademacher()))


@pytest.fixture
def ma_model(tmp_path):
    path = tmp_path / "ma.json"
    path.write_text(MA_JSON)
    return str(path)


@pytest.fixture
def iid_model(tmp_path):
    path = tmp_path / "iid.json"
    path.write_text(IID_JSON)
    return str(path)


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(row for row in handle if not row.startswith("#")))


def test_grid_parsing():
    assert parse_grid("0:10:2.5") == [0.0, 2.5, 5.0, 7.5, 10.0]
    assert parse_grid("1:1:1") == [1.0]
    # endpoint inclusive within 1e-12 steps
    grid = parse_grid("0:0.3:0.1")
    assert grid[-1] == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        parse_grid("0:10")
    with pytest.raises(ConfigError):
        parse_grid("0:10:-1")
    with pytest.raises(ConfigError):
        parse_grid("a:b:c")
    # non-finite endpoints and oversized grids are rejected, not looped over
    for spec in ("0:inf:1", "nan:1:1", "0:1:nan", f"0:{MAX_GRID_POINTS}:1", "1:1.5:1e-300"):
        with pytest.raises(ConfigError):
            parse_grid(spec)
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS


@pytest.mark.parametrize("spec", [
    "0:0.3:0.1", "1:1:1", "0:4000:0.1", f"1:{MAX_GRID_POINTS}:1", "0:1:0.1", "0.1:0.7:0.2", "-3:7:0.7",
    # stop is -0.0: a point clipped to stop keeps its sign as min(x, stop) does
    "0:-0:1",
    # start + k*step rounds to start for k < 8192, past any count estimate
    "1e20:1e20:1",
    # one point too many
    f"1:{MAX_GRID_POINTS + 1}:1",
])
def test_grid_matches_loop_reference(spec):
    start, stop, step = (float(v) for v in spec.split(":"))
    expected = oracles.parse_grid(start, stop, step, MAX_GRID_POINTS)
    if expected is None:
        with pytest.raises(ConfigError, match=f"more than {MAX_GRID_POINTS} points"):
            parse_grid(spec)
        return
    grid = parse_grid(spec)
    assert type(grid) is list and all(type(x) is float for x in grid[:3])
    assert grid == expected
    assert [math.copysign(1.0, x) for x in grid[:3]] == [math.copysign(1.0, x) for x in expected[:3]]


@pytest.mark.parametrize("s", [-1000, -520, -60, 8, 60])
def test_grid_endpoint_slack_scales_with_step(s):
    # 0:4000*2^s:250*2^s is 17 points at every scale; an absolute 1e-12 slack added
    # 4,611 copies of stop at s = -60 and failed with "more than 1000000 points" at s = -520
    step = 250 * 2.0**s
    assert parse_grid(f"0:{16 * step!r}:{step!r}") == [k * step for k in range(17)]


def test_bound_grid_matches_scalar_reference(tmp_path, capsys):
    # 12 coefficients: v(p_n) > 0 at n = 64 (p_n = 9); the grid reaches NaN bounds
    # (0 * inf) at large negative x, x = 0, both failed hypotheses of the reference and
    # log_ratio > 350, and the scalar code warned on it; the reference has no sign
    # hypothesis, so valid is also false at every x < 0
    ma = MovingAverage(coeffs=(1.0,) * 12, law=UniformOnInterval(-1, 1))
    path = tmp_path / "ma12.json"
    path.write_text(model_to_json(ma))
    spec = "-1e7:2e5:1e3"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["bound", "--model", str(path), "--n", "64", f"--x-grid={spec}"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and caught == []
    c, sigma2 = almost_sure_bound(ma), long_run_variance(ma)
    # p_n = floor(64^0.55) = 9; d_n is the bounded-case schedule at theta_eff = log p_n / log n
    theta_eff = math.log(9) / math.log(64)
    d_n = (4.0 * 2.0 * c * c / sigma2) * 64 ** (2.0 * theta_eff - 1.0) * math.log(64)
    v_pn = gamma_sequence(ma).tail_sum(9)
    lines = ["x,bound,valid"]
    with np.errstate(invalid="ignore"):
        for x in parse_grid(spec):
            value, violated = oracles.tail_bound(x, block_scheme(64, 9), c, sigma2, d_n, v_pn)
            lines.append(f"{x:.17g},{value:.17g},{str(not violated and x >= 0).lower()}")
    assert out == "\n".join(lines) + "\n"
    assert ",nan," in out and ",true" in out and ",false" in out


def test_coeffs_table_matches_per_k_reference(tmp_path):
    # n_max below, at and beyond the 4 nonzero coefficients
    ma = MovingAverage(coeffs=(1.0, -0.5, 1.0, 0.25, 2.0), law=UniformOnInterval(-1, 1))
    path = tmp_path / "ma5.json"
    path.write_text(model_to_json(ma))
    gamma = gamma_sequence(ma)
    for n_max in (1, 3, 4, 9):
        out = tmp_path / f"coeffs{n_max}.csv"
        assert run(["coeffs", "--model", str(path), "--n-max", str(n_max), "--out", str(out)]) == 0
        expected = ["k,gamma,v"] + [f"{k},{gamma.gamma(k):.17g},{gamma.tail_sum(k):.17g}" for k in range(1, n_max + 1)]
        assert out.read_text() == "\n".join(expected) + "\n"


def test_coeffs_table(ma_model, tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run(["coeffs", "--model", ma_model, "--n-max", "5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "gamma", "v"]
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == [1, 2, 3, 4, 5]
    gammas = [float(r[1]) for r in rows[1:]]
    # p - 1 = 2 nonzero entries then zeros
    assert gammas[0] > 0 and gammas[1] > 0
    assert gammas[2:] == [0.0, 0.0, 0.0]
    # v column is the tail sum of the gamma column
    vs = [float(r[2]) for r in rows[1:]]
    assert vs[0] == pytest.approx(sum(gammas))
    assert vs[2] == 0.0


def test_decompose_output(ma_model, tmp_path):
    out = tmp_path / "dec.csv"
    assert run(["decompose", "--model", ma_model, "--n", "10", "--p", "2", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    rows = read_csv(out)
    assert rows[0] == ["j", "Y"]
    assert len(rows) == 5  # 2 r = 4 blocks
    assert "# z_odd=" in text and "remainder=" in text
    # summary reproduces the block sums
    blocks = [float(r[1]) for r in rows[1:]]
    summary = text.strip().splitlines()[-1]
    z_odd = float(summary.split("z_odd=")[1].split()[0])
    assert z_odd == pytest.approx(blocks[0] + blocks[2], abs=1e-12)


def test_bound_grid_output(ma_model, tmp_path):
    out = tmp_path / "bound.csv"
    code = run(
        ["bound", "--model", ma_model, "--n", "1024", "--theta", "0.55", "--alpha", "2",
         "--x-grid", "0:500:100", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "bound", "valid"]
    assert len(rows) == 7
    bounds = [float(r[1]) for r in rows[1:]]
    assert bounds[0] >= bounds[-1]  # nonincreasing on the valid region
    assert all(r[2] == "true" for r in rows[1:])


def test_bound_rejects_bad_theta(ma_model):
    assert run(["bound", "--model", ma_model, "--theta", "1.2"]) == 2


@pytest.mark.parametrize("model_json", [MA11_JSON, MA_JSON], ids=["ma11", "ma3"])
@pytest.mark.parametrize("n, theta, grid", [
    (4096, 0.55, "0:4000:250"), (64, 0.55, "0:200:10"), (1024, 0.7, "0:1000:50"), (16, 0.55, "0:16:1"),
])
def test_bound_prints_the_tail_check_bound_columns(model_json, n, theta, grid, tmp_path, capsys):
    # bound and the tail check build the bound at the same theta_eff, bit for bit
    path = tmp_path / "model.json"
    path.write_text(model_json)
    options = ["--model", str(path), "--n", str(n), "--theta", str(theta), f"--x-grid={grid}"]
    assert run(["bound", *options]) == 0
    bound = [row[1:] for row in csv.reader(capsys.readouterr().out.splitlines()[1:])]
    assert run(["verify", "--check", "tail", "--replicates", "200", *options]) in (0, 1)
    tail = [row[4:6] for row in csv.reader(capsys.readouterr().out.splitlines()[1:])]
    assert len(bound) == len(parse_grid(grid)) and bound == tail


def test_bound_and_tail_print_the_same_error(tmp_path, capsys):
    cumsum = tmp_path / "cumsum.json"
    cumsum.write_text(model_to_json(CumSumTransform(coeffs=(1.0,) * 8, transform=NegExp(),
                                                    law=UniformOnInterval(-1, 1))))
    ma11 = tmp_path / "ma11.json"
    ma11.write_text(MA11_JSON)
    for model, options in ((cumsum, []), (ma11, ["--theta", "1.2"]), (ma11, ["--alpha", "0.5"]),
                           (ma11, ["--alpha", "1e308"])):
        errors = []
        for command in (["bound"], ["verify", "--check", "tail", "--replicates", "200"]):
            assert run([*command, "--model", str(model), *options]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            errors.append(err)
        assert errors[0] == errors[1], errors


def test_usage_errors(iid_model, tmp_path, capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    assert run(["verify", "--check", "clt"]) == 2  # missing --model
    assert run(["coeffs", "--model", "/nonexistent/model.json"]) == 2
    assert run(["verify", "--check", "clt", "--model", iid_model, "--replicates", "100", "--n", "0"]) == 2
    # a run that checks nothing writes no header-only report
    capsys.readouterr()
    assert run(["verify", "--check", "newman", "--t-grid", ",", "--model", iid_model, "--replicates", "100"]) == 2
    assert capsys.readouterr() == ("", "error: verify --check newman has no rows to report with these arguments\n")
    # quasi scales that overflow ||f|| or its square name both options; a
    # non-finite --alpha2 is a usage error, not a verdict
    overflow = ("--alpha1-grid", "--alpha2")
    for argv, words in ((["--alpha1-grid", "400:401:1"], overflow), (["--alpha2", "1000"], overflow),
                        (["--alpha2", "200"], overflow),
                        (["--alpha2", "inf"], ("finite",)), (["--alpha2", "nan"], ("finite",))):
        capsys.readouterr()
        assert run(["verify", "--check", "quasi", *argv, "--model", iid_model, "--replicates", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words), err
    # a negative --seed, cov at an --n with no two disjoint index sets and a quasi scale
    # that is not positive name their option; numpy or the library named none
    for argv, line in (
        (["decompose", "--n", "8", "--p", "2", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        (["verify", "--check", "clt", "--replicates", "100", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        (["verify", "--check", "cov", "--replicates", "100", "--n", "1"],
         "--n must be at least 2 for two disjoint index sets, got 1"),
        (["verify", "--check", "quasi", "--alpha2", "0"], "--alpha2 must be finite and positive, got 0"),
        (["verify", "--check", "quasi", "--alpha2", "-1"], "--alpha2 must be finite and positive, got -1"),
        (["verify", "--check", "quasi", "--alpha1-grid", "0:1:1"], "--alpha1-grid points must be positive, got '0:1:1'"),
    ):
        capsys.readouterr()
        assert run([*argv, "--model", iid_model]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")
    # an emp point outside [0, 1] names its option
    for option, value in (("--s", "1.5"), ("--t", "-0.5"), ("--s", "nan")):
        capsys.readouterr()
        assert run(["verify", "--check", "emp", option, value, "--model", iid_model, "--replicates", "100"]) == 2
        assert capsys.readouterr() == ("", f"error: {option} must lie in [0, 1], got {value}\n")
    # a malformed list entry or slln grid names its option; an empty tail grid is no default grid
    for argv, line in (
        (["--check", "newman", "--t-grid", "abc"], "--t-grid must be a comma-separated list of floats, got 'abc'"),
        (["--check", "fclt", "--times", "0.5,x"], "--times must be a comma-separated list of floats, got '0.5,x'"),
        (["--check", "newman", "--t-grid", "nan"], "--t-grid entries must be finite, got 'nan'"),
        (["--check", "newman", "--t-grid", "0.5,inf"], "--t-grid entries must be finite, got '0.5,inf'"),
        (["--check", "fclt", "--times", "nan"], "--times entries must be finite, got 'nan'"),
        (["--check", "fclt", "--times", "0.5,-inf"], "--times entries must be finite, got '0.5,-inf'"),
        (["--check", "slln", "--n-grid", "1e3"], "--n-grid must be a comma-separated list of ints, got '1e3'"),
        (["--check", "tail", "--x-grid", ""], "grid must be start:stop:step, got ''"),
        (["--check", "slln", "--n-grid", "64,128"], "need at least 3 distinct positive --n-grid points to fit a slope"),
        (["--check", "slln", "--n-grid", "64,128,64,256"], "--n-grid points must be distinct: 64 repeated"),
    ):
        capsys.readouterr()
        assert run(["verify", *argv, "--model", iid_model, "--replicates", "100"]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")
    # a size whose arrays exceed the address space fails at once, whatever the
    # host's overcommit setting, and is a usage error rather than a failed check
    for argv in (["coeffs", "--n-max", "100000000000000"], ["decompose", "--n", "100000000000000", "--p", "1"],
                 ["verify", "--check", "clt", "--n", "64", "--replicates", "100000000000000"]):
        capsys.readouterr()
        assert run([*argv, "--model", iid_model]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate") and err.count("\n") == 1, err
    # an --n that no index can hold, or below 1, names --n; numpy and float arithmetic
    # named no option, and bound --n -5 raised a TypeError
    for argv in (["bound"], ["verify", "--check", "tail"], ["verify", "--check", "fclt"],
                 ["verify", "--check", "clt"], ["verify", "--check", "emp"], ["verify", "--check", "cov"],
                 ["decompose", "--p", "1"]):
        for n in ("1" + "0" * 400, "-5"):
            capsys.readouterr()
            assert run([*argv, "--n", n, "--model", iid_model]) == 2
            assert capsys.readouterr() == ("", f"error: --n must lie in [1, {sys.maxsize}]\n")
    # so does every other size option: numpy named none of them past an index, and --cases,
    # whose case list is built in full before any check, stops at the row limit of a grid
    huge, limit, cases = "1" + "0" * 400, f"[1, {sys.maxsize}]", f"--cases must lie in [1, {MAX_GRID_POINTS}]"
    for argv, line in (
        (["coeffs", "--n-max", huge], f"--n-max must lie in {limit}"),
        (["coeffs", "--n-max", "0"], f"--n-max must lie in {limit}"),
        (["verify", "--check", "clt", "--replicates", huge], f"--replicates must lie in {limit}"),
        (["verify", "--check", "clt", "--replicates", "0"], f"--replicates must lie in {limit}"),
        (["verify", "--check", "clt", "--replicates", "99"], "need at least 100 replicates, got 99"),
        (["verify", "--check", "slln", "--n-grid", f"64,128,{huge}"], f"--n-grid entries must lie in {limit}"),
        (["verify", "--check", "slln", "--n-grid", "0,64,128"], f"--n-grid entries must lie in {limit}"),
        (["verify", "--check", "cov", "--cases", huge], cases),
        (["verify", "--check", "cov", "--cases", str(MAX_GRID_POINTS + 1)], cases),
        (["verify", "--check", "cov", "--cases", "0"], cases),
        (["verify", "--check", "cov", "--cases", "-3"], cases),
    ):
        capsys.readouterr()
        assert run([*argv, "--model", iid_model]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")
    # a long-run variance that is not a positive float names its case: a zero coefficient sum,
    # or a sigma^2 that underflows or overflows; it printed "degenerate model" for all three
    u11 = "law variance 0.3333333333333333 times coefficient sum"
    for coeffs, line in (
        ((1.0, -1.0), "degenerate model: the coefficients sum to 0, so the long-run variance is 0"),
        ((1e-300,), f"long-run variance underflows: {u11} 1e-300 squared rounds to 0"),
        ((1e155, 1e155), f"long-run variance overflows: {u11} 2e+155 squared exceeds the largest float"),
    ):
        model = tmp_path / "sigma2.json"
        model.write_text(model_to_json(MovingAverage(coeffs=coeffs, law=UniformOnInterval(-1.0, 1.0))))
        for check in ("clt", "slln", "fclt"):
            capsys.readouterr()
            assert run(["verify", "--check", check, "--model", str(model), "--replicates", "100"]) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")
    # alpha must be finite and exceed 1, in bound and in the tail check alike
    for argv, line in (
        (["bound", "--alpha", "inf"], "alpha must be finite and exceed 1, got inf"),
        (["bound", "--alpha", "1e308"], "--alpha 1e+308 is too large: d_n overflows"),
        (["verify", "--check", "tail", "--alpha", "inf"], "alpha must be finite and exceed 1, got inf"),
        (["verify", "--check", "tail", "--alpha", "1e308"], "--alpha 1e+308 is too large: d_n overflows"),
        (["verify", "--check", "tail", "--alpha", "0.5"], "alpha must be finite and exceed 1, got 0.5"),
    ):
        capsys.readouterr()
        assert run([*argv, "--model", iid_model]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")


ALL_OPTIONS = _options(*CHECKS.values())


@pytest.mark.parametrize(
    "check, option",
    [(check, option) for check in CHECKS for option in ALL_OPTIONS if option not in _options(CHECKS[check])],
)
def test_verify_rejects_an_option_the_check_does_not_read(check, option, capsys):
    flag = "--" + option.replace("_", "-")
    # rejected before the model file is read
    argv = ["verify", "--check", check, flag, str(ALL_OPTIONS[option]), "--model", "/nonexistent/model.json"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: verify --check {check} does not read {flag}\n")


def test_each_option_has_one_type_across_checks():
    # the parser converts an option with the type of its default
    for name in ALL_OPTIONS:
        kinds = {type(_options(check)[name]) for check in CHECKS.values() if name in _options(check)}
        assert len(kinds) == 1, (name, kinds)


def test_malformed_model_json(tmp_path, capsys):
    law = {"variant": "uniform_on_interval", "a": -1.0, "b": 1.0}
    bad_docs = [
        "{this is not json",
        json.dumps({"variant": "iid", "law": {**law, "c": 2.0}}),  # unknown law key
        json.dumps({"variant": "iid"}),  # missing law
        json.dumps({"variant": "moving_average", "coeffs": 5, "law": law}),
        '{"variant": "moving_average", "coeffs": [NaN, 1.0], "law": %s}' % json.dumps(law),
        '{"variant": "moving_average", "coeffs": [Infinity], "law": %s}' % json.dumps(law),
    ]
    cumsum = {"variant": "cumsum_transform", "coeffs": [1.0, 1.0], "law": law}
    decompose = ["decompose", "--n", "2", "--p", "1"]
    cases = [(doc, ["coeffs"], "") for doc in bad_docs] + [
        # well-formed models whose centering mean overflows or whose
        # quadrature diverges, naming the field at fault
        (json.dumps({**cumsum, "coeffs": [1000.0, 1.0], "transform": {"variant": "neg_exp"}}), decompose, "coeffs"),
        (json.dumps({**cumsum, "coeffs": [700.0, 700.0], "transform": {"variant": "neg_exp"}}), decompose, "coeffs"),
        (json.dumps({**cumsum, "transform": {"variant": "gauss_bump_plus_x", "beta": 1e-9}}), decompose, "beta"),
        # a field of another variant, which used to be dropped
        (json.dumps({"variant": "iid", "coeffs": [1.0, 1.0], "law": law}), ["coeffs"], "coeffs"),
        (json.dumps({"variant": "moving_average", "coeffs": [1.0], "transform": {"variant": "neg_exp"}, "law": law}),
         ["coeffs"], "transform"),
    ]
    # a parameter that is not a JSON number, which used to load and then run or end in a traceback
    strings = json.dumps({"variant": "iid", "law": {**law, "a": "1", "b": "2"}})
    cases += [(strings, argv, "law field 'a' must be a finite number")
              for argv in (["coeffs"], ["bound"], ["decompose", "--n", "8", "--p", "2"])]
    cases += [
        (json.dumps({"variant": "iid", "law": {**law, "a": True, "b": 2.0}}), ["coeffs"], "field 'a' must be a finite number"),
        (json.dumps({"variant": "moving_average", "coeffs": "12", "law": law}), ["coeffs"], "'coeffs' must be a list"),
        (json.dumps({"variant": "moving_average", "coeffs": ["1", "2"], "law": law}), ["coeffs"], "'coeffs' must be"),
        (json.dumps({"variant": "moving_average", "coeffs": [1.0, False], "law": law}), ["coeffs"], "'coeffs'"),
        (json.dumps({**cumsum, "transform": {"variant": "gauss_bump_plus_x", "beta": None}}), decompose, "'beta'"),
        (json.dumps({"variant": "iid", "law": {"variant": "truncated_gaussian", "bound": [1.5]}}), ["coeffs"],
         "'bound'"),
    ]
    # a parameter that is not finite as a float (1e400 parses to inf; an int beyond the float range),
    # which used to run with NaN block sums, blame an option or end in a traceback
    huge = "1" + "0" * 400
    uniform_b = '{"variant": "iid", "law": {"variant": "uniform_on_interval", "a": 0, "b": %s}}'
    gaussian = '{"variant": "iid", "law": {"variant": "truncated_gaussian", "bound": %s}}'
    bump = '{"variant": "cumsum_transform", "coeffs": [1.0, 1.0], "law": %s, "transform": %s}' % (
        json.dumps(law), '{"variant": "gauss_bump_plus_x", "beta": 1e400}')
    cases += [(uniform_b % "1e400", argv, "law field 'b' must be a finite number")
              for argv in (["decompose", "--n", "8", "--p", "2"], ["verify", "--check", "quasi"])]
    cases += [
        (uniform_b % huge, ["bound"], "law field 'b' must be a finite number"),
        (gaussian % "1e400", ["decompose", "--n", "8", "--p", "2"], "law field 'bound' must be a finite number"),
        (gaussian % "1e400", ["verify", "--check", "cov"], "law field 'bound' must be a finite number"),
        (gaussian % huge, ["decompose", "--n", "8", "--p", "2"], "law field 'bound' must be a finite number"),
        (bump, decompose, "transform field 'beta' must be a finite number"),
    ]
    cases += [('{"variant": "moving_average", "coeffs": [%s, 1], "law": %s}' % (huge, json.dumps(law)), argv,
               "model field 'coeffs' must be a list of finite numbers") for argv in (["coeffs"], ["bound"], decompose)]
    # a truncation bound whose mass 2 Phi(b) - 1 rounds to 0, which used to warn and then report on
    # all-zero paths; a bound whose c^2 overflows d_n at every alpha, which used to blame --alpha
    cases += [(gaussian % "1e-17", argv, "truncation bound 1e-17") for argv in (["bound"], ["verify", "--check", "emp"])]
    cases += [(gaussian % "1e300", argv, "model c = 1e+300") for argv in (["bound"], ["verify", "--check", "tail"])]
    bad = tmp_path / "bad.json"
    for doc, argv, word in cases:
        bad.write_text(doc)
        capsys.readouterr()
        assert run([*argv, "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and word in err, err
        assert "--alpha" not in err, err


def test_version_and_list_checks(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
    assert run(["--list-checks"]) == 0
    assert capsys.readouterr().out == (
        "cov --n=24 --cases=10\n"
        "tail --n=4096 --theta=0.55 --alpha=2.0 --x-grid=0:4000:250\n"
        "newman --n=8 --t-grid=0.25,0.5,1\n"
        "quasi --alpha1-grid=1:50:1 --alpha2=1.0\n"
        "slln --n-grid=256,512,1024,2048,4096,8192,16384\n"
        "clt --n=4096\n"
        "fclt --n=4096 --times=0.25,0.5,1\n"
        "emp --n=4096 --s=0.3 --t=0.7\n"
    )


def test_verify_newman_iid_exit_zero(tmp_path, iid_model):
    out = tmp_path / "rep.csv"
    code = run(
        ["verify", "--check", "newman", "--model", iid_model, "--replicates", "2000",
         "--seed", "1", "--n", "6", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["check", "param", "estimate", "se", "bound", "valid", "verdict", "seed", "replicates"]
    assert all(r[4] == "0" or float(r[4]) == 0.0 for r in rows[1:])  # bound column all zeros
    assert all(r[6] == "DOMINATED" for r in rows[1:])


def test_verify_newman_tiny_scale_exits_two(tmp_path, capsys):
    # the influence values of a 1e-300 scale are subnormal and their squares underflow,
    # so the SE is 0 under a nonzero estimate; this printed three VIOLATED rows
    model = tmp_path / "tiny.json"
    model.write_text(model_to_json(MovingAverage(coeffs=(1e-300,), law=UniformOnInterval(-1.0, 1.0))))
    assert run(["verify", "--check", "newman", "--n", "8", "--replicates", "2000", "--model", str(model)]) == 2
    line = "newman SE underflows to 0 at t=0.25 with a nonzero estimate: model scale too small"
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("k", [520, 1000])
def test_verify_newman_bound_overflow_exits_two(k, tmp_path, capsys):
    # coefficients 2^-k with the t grid times 2^k leave the phases t x the same bits, but t^2
    # overflows: the bound was inf (k = 520) or inf * 0 = nan (k = 1000) under three VIOLATED rows
    model = tmp_path / "scaled.json"
    model.write_text(model_to_json(MovingAverage(coeffs=(2.0**-k, 2.0**-k), law=UniformOnInterval(-1.0, 1.0))))
    grid = ",".join(repr(t * 2.0**k) for t in (0.25, 0.5, 1.0))
    argv = ["verify", "--check", "newman", "--n", "8", "--replicates", "2000", "--t-grid", grid, "--model", str(model)]
    assert run(argv) == 2
    line = f"newman bound overflows at t={0.25 * 2.0**k:g}: 4 t^2 sum (n - j) gamma_j exceeds the largest float"
    assert capsys.readouterr() == ("", f"error: {line}\n")


def _model_file(tmp_path, coeffs, halfwidth=1.0):
    path = tmp_path / "scaled.json"
    path.write_text(model_to_json(MovingAverage(coeffs=coeffs, law=UniformOnInterval(-halfwidth, halfwidth))))
    return str(path)


def test_coeffs_exits_two_when_a_coefficient_is_not_finite(tmp_path, capsys):
    # gamma_1 of (2^600, 2^600) is 2^1200 / 3, past the largest float: this printed 1,inf,inf
    assert run(["coeffs", "--n-max", "2", "--model", _model_file(tmp_path, (2.0**600, 2.0**600))]) == 2
    line = "coefficient table overflows at k=1: gamma_k = inf, v(k) = inf; model scale too large"
    assert capsys.readouterr() == ("", f"error: {line}\n")
    # finite gamma_1 and gamma_2 whose tail sum v(1) overflows are refused at k = 1 too
    assert run(["coeffs", "--n-max", "3", "--model", _model_file(tmp_path, (2.0**500,) * 3, 1.1 * 2.0**12)]) == 2
    line = "coefficient table overflows at k=1: gamma_k = 1.45014e+308, v(k) = inf; model scale too large"
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_verify_exit_one_when_check_fails(iid_model):
    # a quasi scan on a grid too narrow to contain the violation reports
    # VIOLATED, and the CLI surfaces that as exit code 1
    code = run(
        ["verify", "--check", "quasi", "--model", iid_model, "--replicates", "100",
         "--alpha1-grid", "1:3:1"]
    )
    assert code == 1


def test_verify_quasi_finds_counterexample(tmp_path, iid_model):
    out = tmp_path / "quasi.json"
    code = run(
        ["verify", "--check", "quasi", "--model", iid_model, "--replicates", "100",
         "--out", str(out), "--format", "json"]
    )
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert records[0]["estimate"] == 10.0
    assert records[0]["verdict"] == "DOMINATED"


def test_verify_clt_and_emp(tmp_path):
    model = tmp_path / "iid_r.json"
    model.write_text(IID_RADEMACHER_JSON)
    code = run(
        ["verify", "--check", "clt", "--model", str(model), "--replicates", "1000",
         "--n", "512", "--seed", "2"]
    )
    assert code == 0
    iid = tmp_path / "iid_u.json"
    iid.write_text(IID_JSON)
    out = tmp_path / "emp.csv"
    code = run(
        ["verify", "--check", "emp", "--model", str(iid), "--replicates", "2000",
         "--n", "512", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    params = [r[1] for r in rows[1:]]
    assert "zeta(0)" in params and "zeta(1)" in params


EMP_ARGV = ["verify", "--check", "emp", "--n", "512", "--replicates", "2000"]


@pytest.mark.parametrize("law", [UniformOnInterval(-1, 1), TruncatedGaussian(1.5)], ids=["uniform", "tgauss"])
def test_emp_reads_an_order_one_model_from_its_coefficients(law, tmp_path):
    # one process, one report: IID is MA((1.0,)), and law.cdf(x / 2) maps MA((2.0,)) back to the same uniforms
    reports = []
    for model in (IID(law), MovingAverage((1.0,), law), MovingAverage((2.0,), law)):
        path, out = tmp_path / "model.json", tmp_path / "emp.csv"
        path.write_text(model_to_json(model))
        assert run([*EMP_ARGV, "--model", str(path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("coeffs", [(-0.5,), (0.0, 1.0)], ids=["minus-half", "zero-one"])
def test_emp_has_a_target_with_one_nonzero_coefficient(coeffs, tmp_path):
    path, out = tmp_path / "model.json", tmp_path / "emp.csv"
    path.write_text(model_to_json(MovingAverage(coeffs, UniformOnInterval(-1, 1))))
    assert run([*EMP_ARGV, "--model", str(path), "--out", str(out)]) == 0
    row = read_csv(out)[-1]
    assert (row[1], float(row[4]), row[5], row[6]) == ("gamma(0.3,0.7)", 0.3 - 0.3 * 0.7, "true", "DOMINATED")


@pytest.mark.parametrize("model", [
    MovingAverage((1.0,), Rademacher()), MovingAverage((1.0, 1.0), Rademacher()),
    MovingAverage((0.0,), UniformOnInterval(-1, 1)), MovingAverage((0.0, 0.0), UniformOnInterval(-1, 1)),
], ids=["rademacher-1", "rademacher-2", "zero-1", "zero-2"])
def test_emp_rejects_a_discrete_marginal(model, tmp_path, capsys):
    # a Rademacher law or no nonzero coefficient, rejected before any division by a zero scale
    path = tmp_path / "model.json"
    path.write_text(model_to_json(model))
    capsys.readouterr()
    assert run([*EMP_ARGV, "--model", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: marginal distribution function unavailable: discrete marginal law\n")


def test_verify_cov_tail_fclt_slln(tmp_path):
    model = tmp_path / "ma11.json"
    model.write_text(MA11_JSON)
    assert run(
        ["verify", "--check", "cov", "--model", str(model), "--replicates", "2000",
         "--cases", "5", "--n", "16"]
    ) == 0
    assert run(
        ["verify", "--check", "tail", "--model", str(model), "--replicates", "500",
         "--n", "256", "--x-grid", "0:200:50"]
    ) == 0
    assert run(
        ["verify", "--check", "fclt", "--model", str(model), "--replicates", "1000",
         "--n", "256", "--times", "0.5,1"]
    ) == 0
    # an empty increment is an error; an allowance that covers a target is no pass
    fclt = ["verify", "--check", "fclt", "--model", str(model), "--replicates", "100"]
    assert run([*fclt, "--n", "2"]) == 2
    out = tmp_path / "fclt.csv"
    assert run([*fclt, "--n", "4", "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 6 and all(r[5] == "false" and r[6] == "BOUND_INVALID" for r in rows)
    assert run(
        ["verify", "--check", "slln", "--model", str(model), "--replicates", "500",
         "--n-grid", "64,128,256,512"]
    ) == 0
    # a slope needs three distinct grid points
    assert run(
        ["verify", "--check", "slln", "--model", str(model), "--replicates", "100",
         "--n-grid", "64,64,64"]
    ) == 2
    assert run(["bound", "--model", str(model), "--x-grid", "0:inf:1"]) == 2


def test_tail_at_negative_deviation_is_bound_invalid(tmp_path, capsys):
    # the Markov step of the bound needs t >= 0; at x < 0 the count exceeds the
    # bound, which used to read VIOLATED with valid=true
    model = tmp_path / "ma11.json"
    model.write_text(MA11_JSON)
    argv = ["verify", "--check", "tail", "--model", str(model), "--n", "1024", "--replicates", "200"]
    assert run([*argv, "--x-grid=-500:0:250"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert [(r[1], r[5], r[6]) for r in rows] == [
        ("x=-500", "false", "BOUND_INVALID"), ("x=-250", "false", "BOUND_INVALID"), ("x=0", "true", "DOMINATED"),
    ]


NONSTATIONARY = ("error: cumulative-sum models are nonstationary: only iid and moving_average models have gamma_k, "
                 "a long-run variance, an almost-sure bound and a marginal law\n")


UNBOUNDED = "error: model path can leave the float range: its almost-sure bound max |xi| * sum |a_j| is inf\n"


def _refused_models(tmp_path):
    """The model files of the refusal cases: the bump model, IID(Rademacher()), the zero-sum MA(1, -1) and
    MA(1e308, 1e308), whose path can leave the float range."""
    files = {"bump": CumSumTransform(coeffs=(1.0, 1.0), transform=GaussBumpPlusX(2.0), law=TruncatedGaussian(1.5)),
             "rademacher": IID(Rademacher()), "zero-sum": MovingAverage(coeffs=(1.0, -1.0), law=UniformOnInterval(-1, 1)),
             "unbounded": MovingAverage(coeffs=(1e308, 1e308), law=UniformOnInterval(-1, 1))}
    for name, model in files.items():
        (tmp_path / f"{name}.json").write_text(model_to_json(model))
    return lambda name: str(tmp_path / f"{name}.json")


def test_check_on_a_model_it_cannot_take_names_the_model(tmp_path, capsys):
    # every command but decompose prints one line on a cumulative-sum model; quasi needs a uniform law
    model = _refused_models(tmp_path)
    cases = [(["verify", "--check", check, "--model", model("bump"), "--replicates", "100"], NONSTATIONARY)
             for check in ("cov", "tail", "newman", "slln", "clt", "fclt", "emp")]
    cases += [([command, "--model", model("bump")], NONSTATIONARY) for command in ("coeffs", "bound")]
    cases += [(["verify", "--check", "quasi", "--model", model("rademacher"), "--replicates", "100"],
               "error: quasi check needs a model with a uniform innovation law\n")]
    for argv, err in cases:
        capsys.readouterr()
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", err), argv


def test_check_refuses_a_model_before_it_draws_a_path(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a path was drawn before the model was refused")

    monkeypatch.setattr("weakdep.models._paths", no_draw)
    model = _refused_models(tmp_path)
    discrete = "error: marginal distribution function unavailable: discrete marginal law\n"
    zero_sum = "error: degenerate model: the coefficients sum to 0, so the long-run variance is 0\n"
    cases = [(check, "bump", NONSTATIONARY) for check in ("cov", "tail", "newman", "slln", "clt", "fclt", "emp")]
    cases += [("emp", "rademacher", discrete)] + [(check, "zero-sum", zero_sum) for check in ("slln", "clt", "fclt")]
    # on MA(1e308, 1e308) cov printed numpy's overflow in add and ten VIOLATED rows of nan, emp DOMINATED
    # rows, and the checks that need sigma^2 "error: intermediate overflow in fsum" (tail: "d_n overflows")
    lrv_overflow = "error: long-run variance overflows: a partial sum of the coefficients exceeds the largest float\n"
    cases += [(check, "unbounded", UNBOUNDED) for check in ("cov", "emp")]
    cases += [(check, "unbounded", lrv_overflow) for check in ("tail", "slln", "clt", "fclt")]
    for check, name, err in cases:
        capsys.readouterr()
        assert run(["verify", "--check", check, "--model", model(name), "--replicates", "100"]) == 2, (check, name)
        assert capsys.readouterr() == ("", err), (check, name)


def test_decompose_refuses_a_path_that_can_leave_the_float_range(tmp_path, capsys):
    # this printed inf blocks and z_odd=inf with exit 0
    assert run(["decompose", "--n", "8", "--p", "2", "--model", _refused_models(tmp_path)("unbounded")]) == 2
    assert capsys.readouterr() == ("", UNBOUNDED)


def test_cov_refuses_a_cumulative_sum_model_before_it_builds_cases(tmp_path, capsys, monkeypatch):
    def no_cases(*args):
        raise AssertionError("the cov cases were built before the model was refused")

    monkeypatch.setattr("weakdep.cli.random_cov_cases", no_cases)
    argv = ["verify", "--check", "cov", "--model", _refused_models(tmp_path)("bump"), "--cases", "20000"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", NONSTATIONARY)


def test_verify_fails_closed(tmp_path):
    # a NaN estimate and bound never pass (the CLI exits 2 on --t-grid nan
    # before reaching one: test_usage_errors)
    [rep] = check_newman(IID(UniformOnInterval(-1, 1)), 8, [math.nan], MCConfig(replicates=100, seed=0))
    assert rep.verdict == "VIOLATED"
    # emp has no gamma(s,t) target for a moving average: no pass, no failure
    model = tmp_path / "ma11.json"
    model.write_text(MA11_JSON)
    out = tmp_path / "emp.csv"
    code = run(
        ["verify", "--check", "emp", "--model", str(model), "--replicates", "100",
         "--n", "64", "--out", str(out)]
    )
    assert code == 0
    row = read_csv(out)[-1]
    assert row[1] == "gamma(0.3,0.7)" and row[5] == "false" and row[6] == "BOUND_INVALID"


def _csv_module_text(header, columns, footer):
    """The reference writer: csv.writer over each cell as the report format
    renders it (17 significant digits, lower-case booleans)."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".17g") if isinstance(value, float) else str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*([cell(v) for v in (col.tolist() if isinstance(col, np.ndarray) else col)]
                           for col in columns)))
    return buf.getvalue() + ("" if footer is None else footer + "\n")


# text made of the characters csv quoting turns on, and of some it does not
_TEXT = st.text(alphabet=',"\n\r x1', max_size=6)
_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.225e-308, 1e308, -1.7976931348623157e308])


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 8))

    def sized(elements):
        return st.lists(elements, min_size=rows, max_size=rows)

    column = st.one_of(
        sized(st.floats() | _EDGE_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        sized(st.booleans()).map(lambda v: np.array(v, dtype=np.bool_)),
        st.integers(-5, 5).map(lambda start: range(start, start + rows)),
        sized(st.one_of(st.floats() | _EDGE_FLOATS, st.integers(), st.booleans(), _TEXT)),
    )
    # every report has two columns or more
    columns = draw(st.lists(column, min_size=2, max_size=5))
    header = draw(st.lists(_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns, draw(st.none() | st.just("# z_odd=1 z_even=-0 remainder=0"))


@given(_tables())
@settings(max_examples=300, deadline=None)
def test_csv_text_is_what_the_csv_module_writes(table):
    # at 3 rows a batch, tables of 0 to 8 rows have no batch, one, several or a partial last one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("weakdep.cli._BATCH_ROWS", 3)
        pieces = list(_csv_text(*table))
    assert "".join(pieces) == _csv_module_text(*table)
    header, columns, footer = table
    head = _csv_module_text(header, [col[:0] for col in columns], None)
    batches = [_csv_module_text(header, [col[lo : lo + 3] for col in columns], None)[len(head):]
               for lo in range(0, len(columns[0]), 3)]
    # the header, then each batch of 3 rows, then the footer after the last row
    assert pieces == [head, *batches, *([] if footer is None else [footer + "\n"])]


@pytest.mark.parametrize("argv, float_values", [
    (["coeffs", "--n-max", "200000"], 2 * 200_000),
    (["decompose", "--n", str(2**20), "--p", "1"], 2**20),
], ids=["coeffs", "decompose"])
def test_report_peak_memory_is_a_few_times_its_columns(argv, float_values, tmp_path, ma_model, iid_model):
    # the report streams in batches, so its rows add no transient of their own size: the traced
    # peak is at most 3 times the bytes of the float columns (the decompose draw of an i.i.d.
    # model allocates 2 of them: the innovations and the filter's scratch term)
    argv = [*argv, "--model", ma_model if argv[0] == "coeffs" else iid_model, "--out", str(tmp_path / "r.csv")]
    assert run(argv) == 0  # imports and caches are not the report's
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * float_values


class _FailingHandle:
    """A report file whose writelines raises OSError after the header and the first batch."""

    def __init__(self, handle, written):
        self.handle, self.written = handle, written

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def writelines(self, pieces):
        for piece in pieces:
            if len(self.written) == 2:
                raise OSError("no space left on device")
            self.written.append(piece)
            self.handle.write(piece)


def test_failed_batch_write_keeps_the_old_report(tmp_path, ma_model, capsys, monkeypatch):
    out = tmp_path / "r.csv"
    out.write_bytes(b"old report\n")
    written = []
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FailingHandle(fdopen(fd, mode), written))
    assert run(["coeffs", "--model", ma_model, "--n-max", str(3 * _BATCH_ROWS), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: no space left on device\n")
    assert len(written) == 2 and written[1].count("\n") == _BATCH_ROWS
    assert out.read_bytes() == b"old report\n"
    assert list(tmp_path.glob(".weakdep-*.tmp")) == []


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n-max", str(5 * _BATCH_ROWS // 2)],
    ["bound", "--x-grid", f"0:{5 * _BATCH_ROWS // 2}:1"],
    ["decompose", "--n", str(5 * _BATCH_ROWS // 2), "--p", "1"],
], ids=["coeffs", "bound", "decompose"])
def test_stdout_report_is_the_out_file(argv, tmp_path, ma_model, capsysbinary):
    # reports of two full batches and a partial third
    out = tmp_path / "r.csv"
    assert run([*argv, "--model", ma_model, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert run([*argv, "--model", ma_model]) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout == out.read_bytes() and stdout.count(b"\n") > 2 * _BATCH_ROWS


def test_report_round_trip_exact(tmp_path):
    records = [
        VerificationReport(
            check="demo",
            param="x=1",
            estimate=0.1 + 0.2,  # not representable exactly; still round-trips
            se=1.2345678901234567e-05,
            bound=math.pi,
            valid=True,
            verdict="DOMINATED",
            seed=7,
            replicates=100,
        )
    ]
    csv_path = tmp_path / "r.csv"
    emit_report(records, "csv", str(csv_path))
    rows = read_csv(csv_path)
    assert float(rows[1][2]) == records[0].estimate
    assert float(rows[1][3]) == records[0].se
    assert float(rows[1][4]) == records[0].bound

    json_path = tmp_path / "r.json"
    emit_report(records, "json", str(json_path))
    parsed = json.loads(json_path.read_text())
    assert parsed[0]["estimate"] == records[0].estimate
    assert parsed[0]["bound"] == records[0].bound


def test_emit_report_empty_and_atomic(tmp_path):
    csv_path = tmp_path / "empty.csv"
    emit_report([], "csv", str(csv_path))
    assert csv_path.read_text().strip() == "check,param,estimate,se,bound,valid,verdict,seed,replicates"
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["empty.csv"]


# every check at a small scale on the uniform MA(1,1), which has no gamma(s,t) target
# (emp's bound is nan), and a quasi scan that finds no scale (its estimate is nan)
JSON_RUNS = {
    "cov": ["--n", "24", "--cases", "3"],
    "tail": ["--n", "1024", "--x-grid", "0:1000:250"],
    "newman": ["--n", "8"],
    "quasi": [],
    "slln": ["--n-grid", "64,128,256"],
    "clt": ["--n", "256"],
    "fclt": ["--n", "256"],
    "emp": ["--n", "256"],
}
JSON_NON_FINITE = {"emp": ("bound", "nan"), "quasi-miss": ("estimate", "nan")}


def _bare_constant(token):
    raise ValueError(f"{token} is not a JSON token")


@pytest.mark.parametrize("case, argv", [
    *((check, ["--check", check, *argv]) for check, argv in JSON_RUNS.items()),
    ("quasi-miss", ["--check", "quasi", "--alpha1-grid", "0.01:0.02:0.01"]),
])
def test_json_report_is_json_and_holds_its_csv_rows(case, argv, tmp_path):
    # a non-finite float is the string of its CSV cell, so float() reads both formats alike
    model = tmp_path / "ma11.json"
    model.write_text(MA11_JSON)
    base = ["verify", *argv, "--model", str(model), "--replicates", "200"]
    code = run([*base, "--out", str(tmp_path / "r.csv")])
    assert code in (0, 1) and run([*base, "--out", str(tmp_path / "r.json")]) == code
    records = json.loads((tmp_path / "r.json").read_text(), parse_constant=_bare_constant)
    header, *rows = read_csv(tmp_path / "r.csv")
    assert len(records) == len(rows) > 0
    for record, row in zip(records, rows):
        assert list(record) == header and [_fmt(value) for value in record.values()] == row
        for name in ("estimate", "se", "bound"):
            value, cell = float(record[name]), float(row[header.index(name)])
            assert value == cell or (math.isnan(value) and math.isnan(cell))
    if case in JSON_NON_FINITE:
        name, text = JSON_NON_FINITE[case]
        assert records[-1][name] == text


def test_rerun_overwrites_deterministically(tmp_path, iid_model):
    out = tmp_path / "rep.csv"
    args = ["verify", "--check", "newman", "--model", iid_model, "--replicates", "500",
            "--seed", "5", "--n", "4", "--out", str(out)]
    assert run(args) == 0
    first = out.read_text()
    assert run(args) == 0
    assert out.read_text() == first
