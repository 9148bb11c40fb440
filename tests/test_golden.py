"""Golden outputs: the SHA-256 of every CLI report at small scale.

Each case runs one subcommand or verify check end to end and compares the
bytes it writes, and its exit code, with pinned values.  The library
estimators that no report uses (the Monte Carlo long-run variance and the
pooled lag covariance) are pinned to their exact floats.  A refactor that
must not change any number keeps every digest; a change that alters the
replicate streams or the report format re-pins them on purpose.
"""

import hashlib

import pytest

from weakdep import IID, MovingAverage, UniformOnInterval, empirical_covariance, long_run_variance, model_to_json
from weakdep.cli import run

U11 = UniformOnInterval(-1.0, 1.0)
MODELS = {
    "ma11": MovingAverage(coeffs=(1.0, 1.0), law=U11),
    "ma3": MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11),
    "iid": IID(U11),
}

# id -> (model, argv without --model and --out, exit code, sha256 of the report)
CASES = {
    "coeffs": (
        "ma3", "coeffs --n-max 50", 0,
        "f2f6e13f7c9dd685c816733d30fd4fbffa7b4c779e54e987a57dddb5e47e6990",
    ),
    "decompose": (
        "ma3", "decompose --n 64 --p 4 --seed 0", 0,
        "60c4ad6772b13a65b7c5bceb14ccd2966bf04eb99b8cb85a33aa4265b639ea5b",
    ),
    "bound": (
        "ma11", "bound --n 4096 --x-grid 0:4000:250", 0,
        "f82216c36ef0c23ee3761378d1aa0c9e75f733df991b94edc4534e01ad2d0ed2",
    ),
    "cov": (
        "ma3", "verify --check cov --n 24 --cases 5 --replicates 2000", 0,
        "353bd12d1b834774e2a9933eb5cd6cb64ab30bc89b8fc8b813549b3704ab757e",
    ),
    "tail": (
        "ma11", "verify --check tail --n 1024 --x-grid 0:1000:100 --replicates 500", 0,
        "0b0e05ad419e74e0466929ddf0e881487a79f408bcfad6419b6c662b32baf7a2",
    ),
    "newman": (
        "ma11", "verify --check newman --n 8 --replicates 2000", 0,
        "bce9104c342c990c9554c9006902d23c6d20a78d0744e9bc86c092aedba33e07",
    ),
    "quasi": (
        "iid", "verify --check quasi --replicates 100", 0,
        "08de00c7dd05b368ce31db5bfddc6cbce67ab1b7946242c8e577952b10263538",
    ),
    "quasi-miss": (
        "iid", "verify --check quasi --replicates 100 --alpha1-grid 1:3:1", 1,
        "17019a352bd72633d308c5db16dae0602e1cdd2d96b313f4b1eb43022b6234c9",
    ),
    "slln": (
        "ma11", "verify --check slln --n-grid 64,128,256,512,1024 --replicates 500", 0,
        "274675d363349e84a53f63b1ade1d95b0bbeca0e4c1d12c0f5dbff5711eb0974",
    ),
    "clt": (
        "ma11", "verify --check clt --n 1024 --replicates 1000", 0,
        "d4090d0725268f94950cf8fffed5e718c3289859669da43bac9f3ca89eb8241e",
    ),
    "fclt": (
        "ma11", "verify --check fclt --n 1024 --times 0.25,0.5,1 --replicates 1000", 0,
        "43938a3e7a30da255c7280c3de70913d1a3fbae0eea67806560fb5d640650450",
    ),
    # i.i.d. only: a moving average has no gamma(s,t) target
    "emp": (
        "iid", "verify --check emp --n 512 --replicates 2000", 0,
        "0ac073a3ae111bdbf0a34814c3e651e2f6c6fb25ec62dc853cbc7c3942a5d032",
    ),
    # a moving average: estimated marginal transform, gamma(s,t) row BOUND_INVALID
    "emp-ma11": (
        "ma11", "verify --check emp --n 512 --replicates 2000", 0,
        "7a0979e4014a534f934192041eda6e0de6e7b7a37cea41aee1133fab413a3d15",
    ),
    "emp-json": (
        "iid", "verify --check emp --n 512 --replicates 2000 --format json", 0,
        "ee04e99cc6cf44ee40c6a6dd71334de7996aca24ef73ee1e94835bc80e1372ee",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    model, argv, code, expected = CASES[case]
    model_path = tmp_path / "model.json"
    model_path.write_text(model_to_json(MODELS[model]))
    out = tmp_path / "report.csv"
    assert run([*argv.split(), "--model", str(model_path), "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_golden_monte_carlo_long_run_variance():
    est = long_run_variance(MODELS["ma11"], method="monte_carlo", n=256, replicates=500)
    assert (est.sigma2, est.standard_error) == (1.3867487309781295, 0.0933533363132316)


@pytest.mark.parametrize(
    "lag, expected",
    [
        (0, (0.7191940832625798, 0.012663018720042473)),
        (1, (-0.3046946264524923, 0.013369607785593592)),
        (2, (0.31226507402057896, 0.011157233041824853)),
    ],
)
def test_golden_empirical_covariance(lag, expected):
    assert empirical_covariance(MODELS["ma3"], lag, n=16, replicates=500, seed=3) == expected
