import itertools

import numpy as np
import pytest

from oracles import merge_rows
from uban.cooccur import (AnnotationCorpus, DataError,
                          DEFAULT_RELATIONS, KnowledgeEdgeSet, Segment,
                          UncertaintyMatrix, Video, Vocabulary,
                          build_external_matrix, build_internal_matrix,
                          normalize_lemma, read_matrix_csv, write_matrix_csv)


def make_vocab(n):
    return Vocabulary(
        verbs={i: f"verb_{i}" for i in range(n)},
        nouns={i: f"noun_{i}" for i in range(n)},
        activities={i: (i, i) for i in range(n)},
    )


def chain_corpus(sequences, seg_len=1.0):
    videos = []
    for v, seq in enumerate(sequences):
        segs = [Segment(k * seg_len, (k + 1) * seg_len, c) for k, c in enumerate(seq)]
        videos.append(Video(f"v{v}", segs))
    return AnnotationCorpus(videos)


def brute_force_internal(sequences, C):
    """Enumerate (antecedent instance, successor) pairs and count cross
    products per antecedent class."""
    transitions = []
    for seq in sequences:
        transitions.extend(zip(seq, seq[1:]))
    values = np.zeros((C, C), dtype=np.int64)
    for (a_ant, a_succ), (b_ant, b_succ) in itertools.combinations(transitions, 2):
        if a_ant == b_ant and a_succ != b_succ:
            values[a_succ, b_succ] += 1
            values[b_succ, a_succ] += 1
    return values


def test_shared_antecedent_example():
    # 0 = open fridge, 1 = take milk, 2 = close fridge
    corpus = chain_corpus([[0, 1], [0, 2]])
    m = build_internal_matrix(corpus, make_vocab(3))
    assert m.values[1, 2] == 1
    assert m.values[2, 1] == 1
    assert m.values.sum() == 2


def test_single_segment_video_all_zero():
    m = build_internal_matrix(chain_corpus([[4]]), make_vocab(5))
    assert not m.values.any()


def test_internal_matches_brute_force_random_corpora():
    rng = np.random.default_rng(42)
    for _ in range(20):
        C = int(rng.integers(3, 10))
        seqs = [list(rng.integers(0, C, size=rng.integers(1, 20)))
                for _ in range(rng.integers(1, 20))]
        m = build_internal_matrix(chain_corpus(seqs), make_vocab(C))
        assert np.array_equal(m.values, brute_force_internal(seqs, C))


def test_internal_order_invariant():
    rng = np.random.default_rng(1)
    seqs = [list(rng.integers(0, 6, size=12)) for _ in range(8)]
    m1 = build_internal_matrix(chain_corpus(seqs), make_vocab(6))
    m2 = build_internal_matrix(chain_corpus(list(reversed(seqs))), make_vocab(6))
    assert np.array_equal(m1.values, m2.values)


def test_internal_corpus_merge_superadditive():
    # joint counting crosses instances between the two halves, so the joint
    # matrix dominates the sum of the per-half matrices entrywise
    rng = np.random.default_rng(2)
    seqs_a = [list(rng.integers(0, 5, size=10)) for _ in range(5)]
    seqs_b = [list(rng.integers(0, 5, size=10)) for _ in range(5)]
    joint = build_internal_matrix(chain_corpus(seqs_a + seqs_b), make_vocab(5))
    part_a = build_internal_matrix(chain_corpus(seqs_a), make_vocab(5))
    part_b = build_internal_matrix(chain_corpus(seqs_b), make_vocab(5))
    assert (joint.values >= part_a.values + part_b.values).all()


def test_internal_unknown_activity_rejected():
    corpus = chain_corpus([[0, 7]])
    with pytest.raises(DataError, match="v0"):
        build_internal_matrix(corpus, make_vocab(3))


# ---------------------------------------------------------------------------
# external matrix

def edge_set(edges, relations=DEFAULT_RELATIONS):
    return KnowledgeEdgeSet(edges=set(edges), selected_relations=frozenset(relations))


def brute_force_paths(edges, relations, lemma_a, lemma_b):
    """Count middle nodes x reachable from both ends, edge multiplicities
    multiplied, over undirected deduplicated selected edges."""
    und = set()
    for h, r, t in edges:
        if r in relations and h != t:
            und.add((min(h, t), max(h, t), r))
    count = 0
    nodes = {h for h, _, _ in und} | {t for _, t, _ in und}
    for x in nodes:
        if x in (lemma_a, lemma_b):
            continue
        a_x = sum(1 for h, t, r in und if {h, t} == {min(lemma_a, x), max(lemma_a, x)})
        x_b = sum(1 for h, t, r in und if {h, t} == {min(x, lemma_b), max(x, lemma_b)})
        count += a_x * x_b
    return count


def test_empty_edge_set_zero_matrices():
    verb_m, noun_m, act_m = build_external_matrix(edge_set([]), make_vocab(4))
    assert not verb_m.values.any() and not noun_m.values.any() and not act_m.values.any()


def test_single_intermediate_path():
    vocab = Vocabulary(verbs={0: "cut", 1: "slice"}, nouns={0: "a", 1: "b"},
                       activities={0: (0, 0), 1: (1, 1)})
    edges = edge_set([("cut", "UsedFor", "knife"), ("slice", "UsedFor", "knife")])
    verb_m, _, act_m = build_external_matrix(edges, vocab)
    assert verb_m.values[0, 1] == 1
    assert act_m.values[0, 1] == 1  # noun side contributes zero


def test_unselected_relation_filtered():
    vocab = Vocabulary(verbs={0: "cut", 1: "slice"}, nouns={0: "a", 1: "b"},
                       activities={0: (0, 0), 1: (1, 1)})
    edges = edge_set([("cut", "Antonym", "join"), ("join", "Antonym", "slice")])
    verb_m, _, _ = build_external_matrix(edges, vocab)
    assert verb_m.values[0, 1] == 0


def test_external_matches_brute_force_random_graphs():
    rng = np.random.default_rng(9)
    relations = sorted(DEFAULT_RELATIONS)[:4] + ["Antonym"]
    selected = frozenset(relations[:4])
    for _ in range(20):
        lemmas = [f"w{i}" for i in range(int(rng.integers(4, 12)))]
        edges = set()
        for _ in range(int(rng.integers(5, 60))):
            h, t = rng.choice(lemmas, size=2, replace=False)
            edges.add((h, rng.choice(relations), t))
        n_vocab = 4
        vocab = Vocabulary(verbs={i: lemmas[i] for i in range(n_vocab)},
                           nouns={i: lemmas[i] for i in range(n_vocab)},
                           activities={i: (i, i) for i in range(n_vocab)})
        verb_m, _, _ = build_external_matrix(edge_set(edges, selected), vocab)
        for a in range(n_vocab):
            for b in range(n_vocab):
                if a == b:
                    assert verb_m.values[a, b] == 0
                else:
                    assert verb_m.values[a, b] == brute_force_paths(
                        edges, selected, lemmas[a], lemmas[b])


def test_external_order_invariant_and_activity_sum():
    vocab = Vocabulary(verbs={0: "pour", 1: "fill"}, nouns={0: "cup", 1: "mug"},
                       activities={0: (0, 0), 1: (1, 1)})
    edges = [("pour", "UsedFor", "liquid"), ("fill", "UsedFor", "liquid"),
             ("cup", "UsedFor", "tea"), ("mug", "UsedFor", "tea")]
    verb_m, noun_m, act_m = build_external_matrix(edge_set(edges), vocab)
    verb_m2, noun_m2, act_m2 = build_external_matrix(edge_set(list(reversed(edges))), vocab)
    assert np.array_equal(act_m.values, act_m2.values)
    assert act_m.values[0, 1] == verb_m.values[0, 1] + noun_m.values[0, 1] == 2


def test_empty_relations_rejected():
    with pytest.raises(DataError, match="selected_relations"):
        build_external_matrix(edge_set([("a", "UsedFor", "b")], relations=[]),
                              make_vocab(2))


# ---------------------------------------------------------------------------
# merge_rows

def test_merge_nonzero_union():
    co = merge_rows([0, 2, 0, 1], [0, 0, 3, 0], target_class=0)
    assert co.members == {1, 2, 3}
    assert co.scores == {1: 2.0, 2: 3.0, 3: 1.0}


def test_merge_all_zero_gives_empty_set():
    co = merge_rows([0, 0, 0], [0, 0, 0], target_class=1)
    assert co.members == set()


def test_merge_excludes_target_even_if_nonzero():
    co = merge_rows([5, 1, 0], [2, 0, 0], target_class=0)
    assert 0 not in co.members
    assert co.members == {1}


def test_merge_top_k_cap():
    co = merge_rows([0, 5, 3, 3, 1], [0, 0, 0, 0, 0], target_class=0, top_k=2)
    assert co.members == {1, 2}  # score 5 first, then 3 with lower id


def test_matrix_invariants_enforced():
    with pytest.raises(DataError, match="symmetric"):
        UncertaintyMatrix("internal", np.array([[0, 1], [2, 0]]))
    with pytest.raises(DataError, match="diagonal"):
        UncertaintyMatrix("internal", np.array([[1, 0], [0, 0]]))


def test_matrix_csv_round_trip(tmp_path):
    values = np.array([[0, 3, 1], [3, 0, 0], [1, 0, 0]])
    m = UncertaintyMatrix("internal", values)
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    assert np.array_equal(read_matrix_csv(path).values, values)


def test_normalize_lemma():
    assert normalize_lemma("  Open Fridge ") == "open_fridge"
