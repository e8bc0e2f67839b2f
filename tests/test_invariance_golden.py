"""Invariance reports pinned to ``golden/invariance_reports.json``.

The file was written by the one-pair-at-a-time invariance path, before the
divergences and maps were evaluated on stacks; the stacked path must
reproduce every report exactly (floats compared by ``repr``).  To rewrite
it after a deliberate change of values::

    PYTHONPATH=src python tests/test_invariance_golden.py --write
"""

import json
import os
import sys

from qdiv import check_invariance, depolarizing_channel
from qdiv.suites import suite_invariance

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "invariance_reports.json")

# the five divergences of the benchmark's ensemble workload
DIVERGENCES = (
    ("sandwiched a=0.5", "sandwiched", {"alpha": 0.5}),
    ("sandwiched a=2", "sandwiched", {"alpha": 2.0}),
    ("sandwiched a=3", "sandwiched", {"alpha": 3.0}),
    ("umegaki", "umegaki", {}),
    ("renyi a=2", "renyi", {"alpha": 2.0}),
)


def _witness(before, after):
    return {"before": repr(before), "after": repr(after)}


def current_reports():
    """The pinned reports, computed by the tree under test."""
    assertions = suite_invariance(dim=4, samples=100, seed=3, tol=1e-8)
    passed = all(a["pass"] for a in assertions)
    suite = [{
        "name": a["name"],
        "max_abs_deviation": repr(a["measured"]),
        "infinity_mismatches": a["infinity_mismatches"],
        "pass": a["pass"],
        "witness": (_witness(a["witness"]["before"], a["witness"]["after"])
                    if "witness" in a else None),
    } for a in assertions]
    channel = depolarizing_channel(0.3, 4)
    depolarizing = []
    for name, tag, params in DIVERGENCES:
        rep = check_invariance(channel, tag, n_samples=100, seed=3, **params)
        depolarizing.append({
            "name": name,
            "max_abs_deviation": repr(rep.max_abs_deviation),
            "infinity_mismatches": rep.infinity_mismatches,
            "witness": None if rep.witness is None else _witness(*rep.witness[2:]),
        })
    return {"suite_invariance": {"passed": passed, "assertions": suite},
            "depolarizing": depolarizing}


def test_invariance_reports_match_the_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert current_reports() == golden


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as fh:
        json.dump(current_reports(), fh, indent=1)
        fh.write("\n")
