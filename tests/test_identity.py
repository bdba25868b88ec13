"""tools/identity.py: a run's artifact hashes repeat, and --compare names
exactly the artifacts that differ."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parents[1]
# a reduced H2 matrix: a report bundle, a sampled run, a CSV, a written
# FCIDUMP and histogram files; and a case that reads an input file
REDUCED = ("h2-run-exact", "h2-run-parallel-p1e-3-mitigated", "h2-pds", "h2-integrals",
           "h2-simulate-parallel", "idle-taper")


def _load_identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_agree_and_compare_names_only_a_perturbed_artifact(tmp_path, capsys):
    identity = _load_identity()
    first, second, perturbed = (tmp_path / f"{n}.json" for n in ("first", "second", "perturbed"))
    for out in (first, second):
        assert identity.main(["--cases", *REDUCED, "--", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    result = json.loads(first.read_text())
    assert sorted(result["cases"]) == sorted(REDUCED)
    assert result["blas"]["library"] and result["blas"]["numpy"]
    written = {"h2-pds/pds.csv", "h2-integrals/h2.fcidump", "h2-run-exact/out/summary.txt"}
    assert written <= result["artifacts"].keys()
    # artifacts are named by case, and the input file is not one of them
    assert {name.split("/")[0] for name in result["artifacts"]} == set(REDUCED)

    capsys.readouterr()
    assert identity.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("0 of ")
    result["artifacts"]["h2-pds/pds.csv"] = "0" * 64
    perturbed.write_text(json.dumps(result))
    assert identity.main(["--compare", str(first), str(perturbed)]) == 1
    assert capsys.readouterr().out.splitlines()[:-1] == ["h2-pds/pds.csv"]
