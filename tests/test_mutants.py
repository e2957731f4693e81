"""tools/mutants.py, the mutation audit, finds the sites a test must guard.

Only the listing runs here: a mutant run takes the whole suite per site.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_the_and_of_envelope_ok():
    # the and -> or mutant of this line once survived every test: with
    # decreasing always true it drops the check that the ratios lie under h
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutants.py"), "--list", "src/grouprange/lemma.py"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    line = "| envelope_ok = decreasing and dominating and tail_bound_start != 0"
    ands = [site for site in out if site.endswith(line) and " verify_lemma " in site
            and " and -> or " in site]
    assert len(ands) == 2
    margins = [site for site in out if "> _MARGIN for" in site and " > -> >= " in site]
    assert len(margins) == 2 and all("[equivalent: " in site for site in margins)
