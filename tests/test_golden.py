"""The golden report corpus: every recorded run still prints the same
report, exit code and error (``tests/golden/regen.py`` explains the file)."""
import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_matches_the_golden_corpus():
    difference = _regen().first_difference()
    assert difference is None, difference
