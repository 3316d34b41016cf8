"""GOR conformance (FIXTURES.md F3).

Golden values are the REFERENCE'S computed outputs for
examples/ingram.json (``/root/reference/docs/ex1_0.md:604-720``); the
reference itself documents that these differ from the InGram paper's
published table (``docs/ex1_0.md:579``), so reference parity — not the
paper column — is the conformance target.  That file lives in the
reference checkout, not in this repo, so the parity test is skipped
where the checkout is absent; the hub-cap test runs on the repo-held
``tests/data/gor_hub.json`` and, where present, on ``ingram.json`` too.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
import ray.data as rd

from textgraphs_ray.pipelines.gor import affinity_scores, load_ingram

# The reference checkout sits beside this repo unless TEXTGRAPHS_REFERENCE
# names it.
REFERENCE_DIR = Path(os.environ.get(
    "TEXTGRAPHS_REFERENCE", Path(__file__).resolve().parents[2] / "reference"))
REFERENCE_INGRAM = REFERENCE_DIR / "examples" / "ingram.json"
# Hand-written InGram-format graph: several nodes carry more than two
# seeds (Ada_Lind six), so ``max_seeds=2`` truncates.
GOR_HUB = Path(__file__).parent / "data" / "gor_hub.json"

REFERENCE_OBSERVED = {
    (0, 0): 0.30, (0, 1): 0.27, (0, 2): 0.34,
    (1, 1): 0.23, (1, 2): 0.37, (1, 4): 0.13,
    (2, 2): 0.21, (2, 4): 0.13,
    (3, 3): 0.33, (3, 4): 0.56, (3, 5): 0.22,
    (4, 5): 0.44,
}


@pytest.mark.skipif(not os.path.exists(REFERENCE_INGRAM),
                    reason="reference examples/ingram.json not present")
def test_ingram_affinity_matches_reference():
    edges, rels, _ = load_ingram(str(REFERENCE_INGRAM))
    df = affinity_scores(rd.from_arrow(edges), rels)
    got = {(int(a), int(b)): round(s, 2)
           for a, b, s in zip(df["rel_a"], df["rel_b"], df["score"])}
    assert got == REFERENCE_OBSERVED


def _capped_and_full(path):
    edges, rels, _ = load_ingram(str(path))
    full = affinity_scores(rd.from_arrow(edges), rels, max_seeds=10_000)
    capped = affinity_scores(rd.from_arrow(edges), rels, max_seeds=2)
    assert len(capped) <= len(full)
    again = affinity_scores(rd.from_arrow(edges), rels, max_seeds=2)
    assert capped.equals(again)
    return capped, full


def test_hub_cap_truncates_deterministically():
    capped, full = _capped_and_full(GOR_HUB)
    # the fixture's hubs exceed the cap, so truncation must change scores
    assert not capped.equals(full)
    if os.path.exists(REFERENCE_INGRAM):
        _capped_and_full(REFERENCE_INGRAM)
