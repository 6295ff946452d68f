"""The golden report corpus: every recorded run still prints the same
report, exit code and error (``tests/golden/regen.py`` explains the file)."""
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_matches_the_golden_corpus():
    regen = _regen()
    lines = regen.CORPUS.read_text().splitlines()
    assert [json.loads(line)["argv"] for line in lines] == regen.grid(), (
        "the corpus and the grid disagree: run tests/golden/regen.py"
    )
    for line in lines:
        want = json.loads(line)
        got = regen.record(want["argv"])
        assert got == want, f"first differing run: oddspin {' '.join(want['argv'])}"
