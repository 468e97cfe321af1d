"""Drops 0-7 of the shipped presets against records stored in
``data/golden_records.json``.

A change that should leave every drop record as it was (a speed-up, a
refactor) must keep this test green.  A change that means to alter the
records regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_records.py
"""

import json
from pathlib import Path

import numpy as np

from lsapdma.harness import ExperimentConfig, run_drop

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_records.json"
PRESETS = ("fig3", "fig4", "fig5")
DROPS = 8
RATE_RTOL = 1e-12


def drop_records(preset: str) -> list[list]:
    """[scheme, K, sweep value, sum rate, redraws] of each record of drops
    0 ... DROPS - 1, in the order ``run_drop`` emits them."""
    cfg = ExperimentConfig.from_file(ROOT / "configs" / f"{preset}.cfg")
    return [
        [r.scheme, r.k_users, r.sweep_value, r.sum_rate, r.redraws]
        for i in range(DROPS)
        for r in run_drop(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
    ]


def test_drop_records_match_the_stored_ones():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(PRESETS)
    for preset in PRESETS:
        got, want = drop_records(preset), golden[preset]
        assert len(got) == len(want), preset
        for g, w in zip(got, want):
            # scheme, K, sweep value and redraws exactly; the sum rate to 1e-12
            assert g[:3] + g[4:] == w[:3] + w[4:], (preset, g, w)
            assert abs(g[3] - w[3]) <= RATE_RTOL * abs(w[3]), (preset, g, w)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    blocks = []
    for preset in PRESETS:
        rows = ",\n".join("  " + json.dumps(rec) for rec in drop_records(preset))
        blocks.append(f'"{preset}": [\n{rows}\n ]')
    GOLDEN.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
