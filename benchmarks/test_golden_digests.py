"""The committed digest outputs, recomputed for the two small setups.

``tests/golden/campaign_digest.txt`` and ``tests/golden/replay_digest.txt``
are the stdout of ``benchmarks/campaign_digest.py`` and
``benchmarks/replay_digest.py``: one sha256 per stress-campaign day and
per (setup, controller) replay.  These tests rerun the tools' ``lines``
on the emea 5k/top-40 and Europe 6k/top-60 setups (24 campaign lines,
10 replay lines, ~2 s) and compare them with the committed ones; CI
diffs a full run of each tool against its file.
"""

from pathlib import Path

import campaign_digest
import replay_digest

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

#: The setups small enough for the fast loop, by label.
SMALL = ("emea-5k-top40", "europe-6k-top60")


def _committed(name):
    """The committed lines of the small setups, in file order."""
    lines = (GOLDEN / name).read_text().splitlines()
    return [line for line in lines if line.split()[0] in SMALL]


def test_campaign_digests_match_golden():
    expected = _committed("campaign_digest.txt")
    assert len(expected) == 24
    setups = [setup for setup in campaign_digest.SETUPS if setup[0] in SMALL]
    assert list(campaign_digest.lines(setups)) == expected


def test_replay_digests_match_golden():
    expected = _committed("replay_digest.txt")
    assert len(expected) == 10
    setups = [setup for setup in replay_digest.SETUPS if setup[0] in SMALL]
    assert list(replay_digest.lines(setups)) == expected
