"""tools/mutants.py, the mutation audit, finds the sites a test must guard.

Only the listing runs here: a mutant run takes the whole suite per site.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def test_lists_the_and_of_envelope_ok():
    # each and -> or mutant of this line drops checks of the tail bound:
    # the first all but the partial sum of e**7, the second the scan of the
    # table's ratios on 34..n_max
    out = subprocess.run(
        [sys.executable, str(TOOL), "--list", "src/grouprange/lemma.py"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    line = "| envelope_ok = _E7_BELOW > 33**2 and _TAIL_BOUND < max_ratio and all("
    ands = [site for site in out if site.endswith(line) and " verify_lemma " in site
            and " and -> or " in site]
    assert len(ands) == 2
    assert not any("_MARGIN" in site for site in out)


def test_every_equivalent_entry_matches_a_site(monkeypatch):
    # a reason whose site was edited away would excuse nothing, or a new
    # mutant that happens to end the same way
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for entry in list(mutants.EQUIVALENT):
        path = ROOT / "src" / "grouprange" / entry[0]
        source = path.read_bytes()
        monkeypatch.setattr(mutants, "EQUIVALENT", [entry])
        assert any(mutants.equivalent(path, site, source) for site in mutants.sites(source)), entry
