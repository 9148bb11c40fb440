"""Golden outputs: the SHA-256 of every CLI report at small scale.

Each case runs one subcommand or verify check end to end and compares the
bytes it writes, and its exit code, with pinned values.  A refactor that
must not change any number keeps every digest; a change that alters the
replicate streams or the report format re-pins them on purpose.
"""

import hashlib

import pytest

from weakdep import IID, MovingAverage, UniformOnInterval, model_to_json
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
        "757a5b75595f54107b9371ef15cfd1cd4b2a8c15cbfef7d6a84df8d35cebdc82",
    ),
    "tail": (
        "ma11", "verify --check tail --n 1024 --x-grid 0:1000:100 --replicates 500", 0,
        "a1ab326225d005ea1ba9dc25f57ddbb90af71dd6870c3e471ecb95b85abfb750",
    ),
    "newman": (
        "ma11", "verify --check newman --n 8 --replicates 2000", 0,
        "02ba3223c73e2ce5e59234865471f0ba28fcb54ed3a2732e1aa2fe68b80dda82",
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
        "12a14fbc7c22a78304f679329205454a4fc692829daa9c380ae17c1ec99d4183",
    ),
    "clt": (
        "ma11", "verify --check clt --n 1024 --replicates 1000", 0,
        "4462d8f9ce0a345e43d1e01aecd0bddf810e4c1a20e817f90362473356b803f0",
    ),
    "fclt": (
        "ma11", "verify --check fclt --n 1024 --times 0.25,0.5,1 --replicates 1000", 0,
        "bfc491445a402aa237f8157c48e249da428aeb018db74a047e65fdb6fbe2a354",
    ),
    # i.i.d. only: a moving average has no gamma(s,t) target
    "emp": (
        "iid", "verify --check emp --n 512 --replicates 2000", 0,
        "461daae939d479ce1c6e696a754e9be4af39943ae810e458bc2f4cf8727f98f9",
    ),
    # a moving average: estimated marginal transform, gamma(s,t) row BOUND_INVALID
    "emp-ma11": (
        "ma11", "verify --check emp --n 512 --replicates 2000", 0,
        "233da769000f4f4b282f01cc830bf0ca82a557eadc47921f80dcf5be3a3ca70d",
    ),
    "emp-json": (
        "iid", "verify --check emp --n 512 --replicates 2000 --format json", 0,
        "ee189e6e6ae75582fba0b06da4fa6baf530cfae2bf62fcc1afe3e1f4a8c4b583",
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

