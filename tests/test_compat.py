"""Reference-API façade: the reference's own extraction test
(tests/test_extract.py:20-71 in /root/reference) transliterated to the
compat layer — same call sequence, same expectations."""

from __future__ import annotations

import os
from pathlib import Path

# The reference checkout sits beside this repo unless TEXTGRAPHS_REFERENCE
# names it; its GOR example is read only where present.
REFERENCE_DIR = Path(os.environ.get(
    "TEXTGRAPHS_REFERENCE", Path(__file__).resolve().parents[2] / "reference"))
REFERENCE_INGRAM = REFERENCE_DIR / "examples" / "ingram.json"
GOR_HUB = Path(__file__).parent / "data" / "gor_hub.json"


def test_extract_herzog_via_compat():
    import textgraphs_ray.compat as textgraphs

    text = """
Werner Herzog is a remarkable filmmaker and intellectual originally from Germany, the son of Dietrich Herzog.
    """

    tg = textgraphs.TextGraphs(factory=textgraphs.PipelineFactory())
    pipe = tg.create_pipeline(text.strip())
    tg.collect_graph_elements(pipe, debug=False)
    tg.perform_entity_linking(pipe, debug=False)
    tg.construct_lemma_graph(debug=False)
    tg.calc_phrase_ranks(debug=False)

    results = [(row["text"], row["pos"])
               for _, row in tg.get_phrases_as_df().iterrows()][:4]

    for pair in [("Germany", "PROPN"), ("Werner Herzog", "PROPN"),
                 ("Dietrich Herzog", "PROPN")]:
        assert pair in results

    # exports run off the same state
    rdf = tg.export_rdf()
    assert "werner" in rdf.lower()
    # default dump is the REFERENCE's node-link shape (positional
    # links); canonical engine format available via fmt=
    dumped = tg.dump_lemma_graph()
    assert '"nodes"' in dumped and '"links"' in dumped
    canon = tg.dump_lemma_graph(fmt="canonical")
    assert '"edges"' in canon

    # load_lemma_graph round-trips either format (the reference's
    # resume path, graph.py:299-391)
    tg2 = textgraphs.TextGraphs()
    tg2.load_lemma_graph(dumped)
    assert tg2.dump_lemma_graph(fmt="canonical") == canon


def test_compat_multi_doc_accumulation_and_er():
    import textgraphs_ray.compat as textgraphs

    tg = textgraphs.TextGraphs()
    for text in ["Werner Herzog directed a film.",
                 "W. Herzog visited Germany."]:
        tg.collect_graph_elements(tg.create_pipeline(text))
    clusters = tg.resolve_entities()
    cl = dict(zip(clusters["key"], clusters["cluster_id"]))
    # initial variant resolves to the same entity cluster
    assert cl["werner.PROPN.herzog.PROPN"] == cl["w..PROPN.herzog.PROPN"]


def _gor_via_compat(path):
    from textgraphs_ray.compat import GraphOfRelations

    g = GraphOfRelations()
    g.load_ingram(str(path))
    g.seeds()
    g.construct_gor()
    return g.get_affinity_scores()


def test_gor_compat_matches_pipeline():
    import ray.data as rd

    from textgraphs_ray.compat import KGWikiMedia
    from textgraphs_ray.pipelines.gor import affinity_scores, load_ingram

    df = _gor_via_compat(GOR_HUB)
    edges, rels, _ = load_ingram(str(GOR_HUB))
    assert df.equals(affinity_scores(rd.from_arrow(edges), rels))
    assert {"rel_a", "rel_b", "score"} <= set(df.columns)
    if os.path.exists(REFERENCE_INGRAM):
        # the 12 pairs of REFERENCE_OBSERVED in test_gor.py
        df = _gor_via_compat(REFERENCE_INGRAM)
        assert len(df) == 12 and {"rel_a", "rel_b", "score"} <= set(df.columns)

    kg = KGWikiMedia()
    assert kg.remap_ner("PERSON") == "http://dbpedia.org/ontology/Person"
    assert kg.normalize_prefix(
        "http://www.w3.org/2002/07/owl#Thing") == "owl:Thing"


def test_render_pyvis_styling():
    import textgraphs_ray.compat as textgraphs

    tg = textgraphs.TextGraphs()
    tg.collect_graph_elements(tg.create_pipeline(
        "Werner Herzog directed a film in Germany."))
    tg.construct_lemma_graph()
    tg.calc_phrase_ranks()
    nodes, edges = textgraphs.RenderPyVis(tg).render_lemma_graph()
    assert {"shape", "color", "size"} <= set(nodes.columns)
    assert (nodes.loc[nodes["kind"] == "ent", "shape"] == "circle").all()
    assert len(edges) > 0
