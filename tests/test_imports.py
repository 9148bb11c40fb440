"""Import cost: scipy is imported where it is used, never by `import weakdep`.

The other test modules import scipy themselves, so these tests run each
command in a fresh interpreter, where a deferred import runs cold.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, MODELS

import weakdep
from weakdep import model_to_json
from weakdep.cli import CHECKS

SRC = str(Path(weakdep.__file__).resolve().parents[1])

# runs sys.argv[1], a JSON list of CLI argv lists, in this interpreter and
# prints the exit codes and the scipy modules loaded after the import and after each run
CHILD = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import weakdep, weakdep.cli
loaded, codes = [scipy_modules()], []
for argv in json.loads(sys.argv[1]):
    codes.append(weakdep.cli.run(argv))
    loaded.append(scipy_modules())
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run_fresh(argvs):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_and_numpy_only_checks_load_no_scipy(tmp_path):
    # every command runs on ma11 without scipy, at its defaults where it has them
    model = tmp_path / "ma11.json"
    model.write_text(model_to_json(MODELS["ma11"]))
    common = ["--model", str(model), "--out", os.devnull]
    checks = [["verify", "--check", check, *common, "--replicates", "300"] for check in CHECKS]
    result = run_fresh([
        ["--list-checks"],
        ["coeffs", *common],
        ["bound", *common],
        ["decompose", "--n", "4096", "--p", "16", *common],
        *checks,
    ])
    assert result["codes"] == [0] * (4 + len(checks))
    assert result["loaded"] == [[]] * (5 + len(checks))


def test_deferred_scipy_imports_run_cold(tmp_path):
    # the golden clt case loads no scipy module, the golden decompose-bump case
    # scipy.special (its truncated-Gaussian law) but not scipy.integrate, whose
    # scipy.linalg and scipy.sparse come with it: the bump means are a numpy
    # trapezoidal rule; each runs in its own interpreter, and cold its bytes are
    # the pinned ones; neither loads scipy.stats
    for case, needs in (("clt", set()), ("decompose-bump", {"scipy.special"})):
        name, argv, code, digest = CASES[case]
        model, out = tmp_path / f"{case}.json", tmp_path / f"{case}.csv"
        model.write_text(model_to_json(MODELS[name]))
        result = run_fresh([[*argv.split(), "--model", str(model), "--out", str(out)]])
        assert result["codes"] == [code], case
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, case
        after_import, after_run = result["loaded"]
        assert not after_import and needs <= set(after_run), case
        for forbidden in ("scipy.stats", "scipy.integrate", "scipy.linalg", "scipy.sparse"):
            assert forbidden not in after_run, (case, forbidden)
        if not needs:
            assert after_run == [], case


def test_exact_binomial_limit_loads_no_scipy_stats(tmp_path):
    # x = 60 counts 5 of 500 replicates, below the ten where the Wald limit takes over,
    # so the row takes the exact limit, which needs scipy.special only
    model, out = tmp_path / "ma11.json", tmp_path / "tail.csv"
    model.write_text(model_to_json(MODELS["ma11"]))
    result = run_fresh([["verify", "--check", "tail", "--n", "1024", "--x-grid", "0:200:20", "--replicates", "500",
                         "--model", str(model), "--out", str(out)]])
    assert result["codes"] == [0]
    assert "tail,x=60,0.01," in out.read_text()
    after_import, after_run = result["loaded"]
    assert not after_import and "scipy.special" in after_run and "scipy.stats" not in after_run
