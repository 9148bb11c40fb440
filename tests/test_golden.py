"""Golden outputs: the SHA-256 of every CLI report at small scale.

Each case runs one subcommand or verify check end to end and compares the
bytes it writes, and its exit code, with pinned values.  A refactor that
must not change any number keeps every digest; a change that alters the
replicate streams or the report format re-pins them on purpose.
"""

import hashlib

import pytest

from weakdep import (
    IID, CumSumTransform, GaussBumpPlusX, MovingAverage, TruncatedGaussian, UniformOnInterval, model_to_json,
)
from weakdep.cli import run

U11 = UniformOnInterval(-1.0, 1.0)
MODELS = {
    "ma11": MovingAverage(coeffs=(1.0, 1.0), law=U11),
    "ma3": MovingAverage(coeffs=(1.0, -0.5, 1.0), law=U11),
    "iid": IID(U11),
    # the paper's counterexample family; its centering means go through
    # the Fourier quadrature of TruncatedGaussian.chf
    # coefficients that nearly cancel: sigma^2 = 0.01^2 / 3, far from the
    # limit at small n
    "ma-cancel": MovingAverage(coeffs=(1.0, -0.99), law=U11),
    # sampled by inverse cdf from one uniform per draw, so emp reads it through TruncatedGaussian.cdf
    "tgauss": IID(TruncatedGaussian(1.5)),
    "bump": CumSumTransform(coeffs=(1.0, 1.0), transform=GaussBumpPlusX(2.0), law=TruncatedGaussian(1.5)),
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
    "decompose-bump": (
        "bump", "decompose --n 2 --p 1 --seed 0", 0,
        "fc4d4b2a8021ecc0fb9db5644f0ae05867a77e0db5a2b97764fd6aadb72cb458",
    ),
    "bound": (
        "ma11", "bound --n 4096 --x-grid 0:4000:250", 0,
        "a93ab43296916063190e66fa6a912f2e633c7a0bf1c854a8699b681657baaa2e",
    ),
    # a dense grid whose upper end crosses x/n >= c: valid=false rows
    "bound-dense": (
        "ma3", "bound --n 64 --x-grid 0:2000:0.5", 0,
        "2a85a26e701beb1df0f5fa9d64b02cbd7f7b73c25763ce4d0104e0394078f93a",
    ),
    # the benchmark's analytic tables: 40,001 and 100,000 rows through the CSV writer
    "bound-analytic": (
        "ma11", "bound --n 4096 --theta 0.55 --alpha 2 --x-grid 0:4000:0.1", 0,
        "15d8341f759f165254281cf5bda1985e7a7548117358df67af4d8c63bdea051c",
    ),
    "coeffs-analytic": (
        "ma11", "coeffs --n-max 100000", 0,
        "ca7fb174171c0d7f45840008897fc214a8e317645f87f9052ff1aedb1a1ab324",
    ),
    # n_max no larger than the number of nonzero coefficients
    "coeffs-short": (
        "ma3", "coeffs --n-max 2", 0,
        "fdf039c59e2413b37d73a0269db6907c281dcf11361a0fd994e2e3da4a89050c",
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
        "d614c26dfb59cc51ccb2fdd6a8fd8166429c48f233fe00ac93730d92109edfa1",
    ),
    # a fitted slope below the -0.55 end of the window: VIOLATED, exit 1
    "slln-miss": (
        "ma11", "verify --check slln --n-grid 64,128,256 --replicates 200", 1,
        "b116935ee1ef166777c231af764457903801f1af5c96e1ad3c27ed64d0c21a45",
    ),
    "clt": (
        "ma11", "verify --check clt --n 1024 --replicates 1000", 0,
        "4462d8f9ce0a345e43d1e01aecd0bddf810e4c1a20e817f90362473356b803f0",
    ),
    # a KS distance above its threshold: VIOLATED, exit 1
    "clt-miss": (
        "ma-cancel", "verify --check clt --n 64 --replicates 200", 1,
        "e37e11d910ca64dd146107f4495ae15ce4507a5f8988c94cf6865df2d1233821",
    ),
    "fclt": (
        "ma11", "verify --check fclt --n 1024 --times 0.25,0.5,1 --replicates 1000", 0,
        "93d255b90b994f557bb21571c7a91d40c7acde26617d6ddecc0f93c3bbe9bdd6",
    ),
    # one nonzero coefficient: the exact marginal and the gamma(s,t) target min(s, t) - s t
    "emp": (
        "iid", "verify --check emp --n 512 --replicates 2000", 0,
        "461daae939d479ce1c6e696a754e9be4af39943ae810e458bc2f4cf8727f98f9",
    ),
    # two nonzero coefficients: estimated marginal transform, gamma(s,t) row BOUND_INVALID
    "emp-ma11": (
        "ma11", "verify --check emp --n 512 --replicates 2000", 0,
        "233da769000f4f4b282f01cc830bf0ca82a557eadc47921f80dcf5be3a3ca70d",
    ),
    # the exact cdf maps each draw back to the uniform it was sampled from, up to rounding:
    # the same report as the i.i.d. uniform model's
    "emp-tgauss": (
        "tgauss", "verify --check emp --n 512 --replicates 2000", 0,
        "461daae939d479ce1c6e696a754e9be4af39943ae810e458bc2f4cf8727f98f9",
    ),
    "emp-json": (
        "iid", "verify --check emp --n 512 --replicates 2000 --format json", 0,
        "ee189e6e6ae75582fba0b06da4fa6baf530cfae2bf62fcc1afe3e1f4a8c4b583",
    ),
    # a NaN bound: JSON has no such number, so the report writes the string "nan"
    "emp-ma11-json": (
        "ma11", "verify --check emp --n 512 --replicates 2000 --format json", 0,
        "8cfd8c5db23993f155d4d6580e383449249d42a0c0b326c86e597e7ecae2be12",
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

