"""Drops 0-7 of the shipped presets, and of two variants that reach the
paths the presets leave alone, against records stored in
``data/golden_records.json``.

A change that should leave every drop record as it was (a speed-up, a
refactor) must keep this test green.  A change that means to alter the
records regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_records.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from lsapdma.harness import ExperimentConfig, run_drop
from lsapdma.pattern import parse_pattern_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_records.json"
# a strict N = 3, K = 5 pattern that the simple policy never builds: its
# columns keep their users whatever the drop's weakness ranks, and beam 2
# anchors user 1 or user 2 (both of diversity 2) by their hints
FIXED_PATTERN = parse_pattern_text("1 1 0 1 0\n1 0 1 0 1\n0 1 1 0 0")
# case -> (preset, fields replaced in it)
CASES = {
    "fig3": ("fig3", {}),
    "fig4": ("fig4", {}),
    "fig5": ("fig5", {}),
    # the optimal policy on the pattern's pairs only
    "fig5-strict": ("fig5", {"strict_pattern": True}),
    # per-drop anchors on a fixed pattern, both power policies
    "fig3-fixed": ("fig3", {"pattern_policy": "fixed", "fixed_pattern": FIXED_PATTERN, "users": (5,)}),
}
DROPS = 8
RATE_RTOL = 1e-12


def case_config(case: str) -> ExperimentConfig:
    preset, changes = CASES[case]
    return dataclasses.replace(ExperimentConfig.from_file(ROOT / "configs" / f"{preset}.cfg"), **changes)


def drop_records(case: str) -> list[list]:
    """[scheme, K, sweep value, sum rate, redraws] of each record of drops
    0 ... DROPS - 1, in the order ``run_drop`` emits them."""
    cfg = case_config(case)
    return [
        [r.scheme, r.k_users, r.sweep_value, r.sum_rate, r.redraws]
        for i in range(DROPS)
        for r in run_drop(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
    ]


def test_drop_records_match_the_stored_ones():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    for case in CASES:
        got, want = drop_records(case), golden[case]
        assert len(got) == len(want), case
        for g, w in zip(got, want):
            # scheme, K, sweep value and redraws exactly; the sum rate to 1e-12
            assert g[:3] + g[4:] == w[:3] + w[4:], (case, g, w)
            assert abs(g[3] - w[3]) <= RATE_RTOL * abs(w[3]), (case, g, w)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    blocks = []
    for case in CASES:
        rows = ",\n".join("  " + json.dumps(rec) for rec in drop_records(case))
        blocks.append(f'"{case}": [\n{rows}\n ]')
    GOLDEN.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
