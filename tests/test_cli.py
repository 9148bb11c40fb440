import csv
import json
import math

import pytest

from weakdep import IID, MovingAverage, Rademacher, UniformOnInterval, VerificationReport, model_to_json
from weakdep.cli import MAX_GRID_POINTS, ConfigError, emit_report, parse_grid, run

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
    # endpoint inclusive within 1e-12
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


def test_usage_errors(iid_model, capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    assert run(["verify", "--check", "clt"]) == 2  # missing --model
    assert run(["coeffs", "--model", "/nonexistent/model.json"]) == 2
    assert run(["verify", "--check", "clt", "--model", iid_model, "--replicates", "100", "--n", "0"]) == 2
    # a run that checks nothing writes no header-only report
    for argv in (["--check", "cov", "--cases", "0"], ["--check", "cov", "--cases", "-3"],
                 ["--check", "newman", "--t-grid", ","]):
        capsys.readouterr()
        assert run(["verify", *argv, "--model", iid_model, "--replicates", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


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
    bad = tmp_path / "bad.json"
    for doc in bad_docs:
        bad.write_text(doc)
        capsys.readouterr()
        assert run(["coeffs", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_version_and_list_checks(capsys):
    assert run(["--version"]) == 0
    assert run(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for name in ("cov", "tail", "newman", "quasi", "slln", "clt", "fclt", "emp"):
        assert name in out


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


def test_verify_fails_closed(tmp_path, iid_model):
    # a NaN estimate and bound never pass
    out = tmp_path / "nan.csv"
    code = run(
        ["verify", "--check", "newman", "--model", iid_model, "--replicates", "100",
         "--t-grid", "nan", "--out", str(out)]
    )
    assert code == 1
    assert [r[6] for r in read_csv(out)[1:]] == ["VIOLATED"]
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


def test_rerun_overwrites_deterministically(tmp_path, iid_model):
    out = tmp_path / "rep.csv"
    args = ["verify", "--check", "newman", "--model", iid_model, "--replicates", "500",
            "--seed", "5", "--n", "4", "--out", str(out)]
    assert run(args) == 0
    first = out.read_text()
    assert run(args) == 0
    assert out.read_text() == first
