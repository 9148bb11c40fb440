import re
import types
from pathlib import Path

import weakdep as wd
from weakdep import block_scheme
from weakdep.bounds import _tail_bound_grid

README = Path(__file__).resolve().parent.parent / "README.md"

# the README's library surface and model JSON, plus what the CLI and the
# acceptance criteria import; everything else lives in the submodules
PUBLIC = {
    "BOUND_INVALID", "DOMINATED", "VIOLATED",
    "LaplaceCondition", "named_inequalities", "slln_schedule", "tail_bound", "unbounded_schedule",
    "block_scheme", "decompose",
    "gamma_sequence", "long_run_variance",
    "IID", "MovingAverage", "CumSumTransform", "ModelSpec",
    "UniformOnInterval", "Rademacher", "TruncatedGaussian",
    "Identity", "NegExp", "GaussBumpPlusX",
    "almost_sure_bound", "model_from_json", "model_to_json", "replicate_paths", "sample_path",
    "MCConfig", "PiecewiseLinear", "VerificationReport", "make_report",
    "check_lipschitz_cov", "check_newman", "check_quasi_association_counterexample", "check_tail_domination",
    "clt_ks_distance", "empirical_process_path", "estimate_gamma_operator", "fclt_increment_check",
    "slln_rate_fit",
}


def test_public_surface_is_the_documented_one():
    exported = {
        name for name, value in vars(wd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
    example = README.read_text().split("## Library example", 1)[1]
    used = re.findall(r"\bwd\.(\w+)", example)
    assert used and all(hasattr(wd, name) for name in used)


def test_readme_names_the_tail_bound_hypotheses():
    # the kernel's keys, in order, are the names the BOUND_INVALID bullet gives
    bullet = " ".join(README.read_text().split("- `BOUND_INVALID`:", 1)[1].split("\n\n", 1)[0].split())
    sentence = bullet.split("The tail bound has three, in this order:", 1)[1].split(".", 1)[0]
    _, holds = _tail_bound_grid(1.0, block_scheme(64, 4), 1.0, 1.0, 2.0, 0.1)
    assert re.findall(r"`(\w+)`", sentence) == list(holds)
