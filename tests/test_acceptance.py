"""Acceptance gate: ten end-to-end criteria for the library.

Criteria 1-5 are property and oracle checks on the loss/matrix machinery;
criteria 6-9 are direction-matched synthetic experiments sharing one set of
trained models per seed; criterion 10 checks CLI determinism.  Each test
records a one-line PASS/FAIL verdict (echoed in the terminal summary).
"""

import itertools
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import record_verdict
from oracles import single_label
from uban import autodiff as ad
from uban.autodiff import Tensor, grad_check
from uban.cli import EXIT_OK, main as cli_main
from uban.cooccur import (AnnotationCorpus, KnowledgeEdgeSet, Segment, Video,
                          Vocabulary, build_external_matrix,
                          build_internal_matrix, normalize_lemma)
from uban.data import (NoiseConfig, SyntheticSpec, family_batches,
                       generate_synthetic, pollute, window_samples)
from uban.evaluation import kendall_tau, rejection_curve, topk_accuracy
from uban.losses import (adjust_distribution, anticipation_loss, mix_features,
                         permutation_probability, relative_weights, srul_loss,
                         trul_loss, trul_loss_batched, wd_loss)
from uban.model import AnticipationModel, dual_heads
from uban.train import TrainConfig, _family_uncertainty, evaluate_model, train

SEEDS = (0, 1, 2)
DESK_EPOCHS = 40
ETAS = (0.0, 1.0, 5.0, 10.0)
REJECT_FRACTIONS = (0.0, 0.1, 0.2, 0.3)
REJECT_STEP = 4  # decoder step whose anticipation horizon is 1.0 s


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences through the
# full computation graph (backbone, both heads, positivity, temperature
# division, mixing weights)

def _tiny_model(rng):
    d = int(rng.integers(3, 7))
    C = int(rng.integers(4, 9))
    model = AnticipationModel(feature_dim=d, hidden_dim=int(rng.integers(3, 5)),
                              num_classes=C, seed=int(rng.integers(0, 10_000)))
    return model, d, C


_WRT_CYCLE = (
    ("enc.Wz", "head.bu"), ("dec.Un", "head.bc"), ("enc.bn", "head.Wu"),
    ("dec.bout", "head.Wc"), ("enc.Ur", "dec.bz"), ("dec.Wout", "head.bu"),
)


def _wrt(model, idx):
    params = dict(model.backbone.params)
    params.update(model.head_params)
    return [params[name] for name in _WRT_CYCLE[idx % len(_WRT_CYCLE)]]


def _soft_label(rng, shape):
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(11)
    start = time.time()
    worst = 0.0
    for i in range(50):
        model, d, C = _tiny_model(rng)
        obs = [Tensor(rng.normal(size=(2, d))) for _ in range(2)]
        label = _soft_label(rng, (2, C))

        def loss_adjusted_ce(*_):
            out = model.backbone.anticipate(obs, n_a=2)
            terms = []
            for feat in out:
                logits, u = dual_heads(feat, model.head_params, model.pooling)
                adj = adjust_distribution(logits, u)
                terms.append(anticipation_loss(adj, label))
            return (terms[0] + terms[1]) * Tensor(0.5)

        err = grad_check(loss_adjusted_ce, obs, step=1e-5,
                         wrt=[obs[0]] + _wrt(model, i))
        worst = max(worst, err)
        assert err < 1e-4, f"adjusted-CE instance {i}: {err}"

    for i in range(50):
        model, d, C = _tiny_model(rng)
        obs_i = [Tensor(rng.normal(size=(1, d))) for _ in range(2)]
        obs_j = [Tensor(rng.normal(size=(1, d))) for _ in range(2)]
        label = _soft_label(rng, (1, C))

        def loss_pairwise_mixed(*_):
            feats, scalars = [], []
            for obs in (obs_i, obs_j):
                out = model.backbone.anticipate(obs, n_a=2)
                feats.append(out)
                _, u = dual_heads(out[0], model.head_params, model.pooling)
                scalars.append(u)
            weights = relative_weights(ad.concat(scalars, axis=1))
            log_probs = []
            for step in range(2):
                mixed = mix_features([feats[0][step], feats[1][step]],
                                     [weights[:, 0:1], weights[:, 1:2]])
                logits, u = dual_heads(mixed, model.head_params, model.pooling)
                log_probs.append(adjust_distribution(logits, u))
            return srul_loss(log_probs, label)

        err = grad_check(loss_pairwise_mixed, obs_i + obs_j, step=1e-5,
                         wrt=[obs_i[0]] + _wrt(model, i + 1))
        worst = max(worst, err)
        assert err < 1e-4, f"pairwise-mixed instance {i}: {err}"

    for i in range(50):
        model, d, C = _tiny_model(rng)
        M = int(rng.integers(2, 6))
        members = [[Tensor(rng.normal(size=(1, d))) for _ in range(m + 2)]
                   for m in range(M)]

        def loss_ranking(*_):
            scalars = []
            for m, obs in enumerate(members):
                out = model.backbone.anticipate(obs, n_a=M - m)
                _, u = dual_heads(out[-1], model.head_params, model.pooling)
                scalars.append(u)
            return trul_loss_batched(ad.concat(scalars, axis=1))

        err = grad_check(loss_ranking, members[0], step=1e-5,
                         wrt=[members[0][0]] + _wrt(model, i + 2))
        worst = max(worst, err)
        assert err < 1e-4, f"ranking instance {i}: {err}"

    for i in range(50):
        model, d, C = _tiny_model(rng)
        obs = [Tensor(rng.normal(size=(2, d))) for _ in range(2)]

        def loss_magnitude(*_):
            out = model.backbone.anticipate(obs, n_a=3)
            scalars = [dual_heads(f, model.head_params, model.pooling)[1] for f in out]
            return wd_loss(scalars)

        err = grad_check(loss_magnitude, obs, step=1e-5,
                         wrt=[obs[0]] + _wrt(model, i + 3))
        worst = max(worst, err)
        assert err < 1e-4, f"magnitude instance {i}: {err}"

    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30
    record_verdict(1, ok, f"gradient suite max rel err {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 30, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: matrix builders against brute-force oracles; ranking
# probabilities normalize

def _random_corpus(rng):
    C = int(rng.integers(3, 16))
    videos = []
    for v in range(int(rng.integers(1, 51))):
        n = int(rng.integers(2, 21))
        segs = [Segment(start=float(k), stop=float(k) + 1.0,
                        activity_id=int(rng.integers(0, C)))
                for k in range(n)]
        videos.append(Video(video_id=f"v{v}", segments=segs))
    vocab = Vocabulary(verbs={0: "verb"}, nouns={i: f"noun{i}" for i in range(C)},
                       activities={i: (0, i) for i in range(C)})
    return AnnotationCorpus(videos), vocab, C


def _brute_internal(corpus, C):
    succ = defaultdict(list)
    for video in corpus.videos:
        for prev, cur in zip(video.segments, video.segments[1:]):
            succ[prev.activity_id].append(cur.activity_id)
    values = np.zeros((C, C), dtype=np.int64)
    for instances in succ.values():
        for a, b in itertools.combinations(instances, 2):
            if a != b:
                values[a, b] += 1
                values[b, a] += 1
    return values


def _brute_paths(edges, relations, lemmas):
    und = set()
    for h, r, t in edges:
        h, t = normalize_lemma(h), normalize_lemma(t)
        if r in relations and h != t:
            und.add((min(h, t), max(h, t), r))
    nodes = sorted({h for h, _, _ in und} | {t for _, t, _ in und}
                   | {normalize_lemma(l) for l in lemmas})
    neighbors = defaultdict(list)
    for h, t, _ in und:
        neighbors[h].append(t)
        neighbors[t].append(h)
    out = np.zeros((len(lemmas), len(lemmas)), dtype=np.int64)
    for i, a in enumerate(lemmas):
        for j, b in enumerate(lemmas):
            if i == j:
                continue
            a_n, b_n = normalize_lemma(a), normalize_lemma(b)
            out[i, j] = sum(neighbors[a_n].count(mid) * neighbors[mid].count(b_n)
                            for mid in nodes)
    return out


def _random_graph(rng):
    n_verbs = int(rng.integers(2, 6))
    n_nouns = int(rng.integers(2, 6))
    verbs = {i: f"verb {i}" for i in range(n_verbs)}
    nouns = {i: f"noun {i}" for i in range(n_nouns)}
    pairs = list(itertools.product(range(n_verbs), range(n_nouns)))
    rng.shuffle(pairs)
    acts = {i: tuple(pairs[i]) for i in range(int(rng.integers(2, len(pairs) + 1)))}
    vocab = Vocabulary(verbs=verbs, nouns=nouns, activities=acts)
    pool = ([f"Verb {i}" for i in range(n_verbs)]
            + [f"Noun {i}" for i in range(n_nouns)]
            + [f"hub{i}" for i in range(int(rng.integers(1, 6)))])
    rels = ["RelatedTo", "UsedFor", "AtLocation", "Antonym", "MadeUpRel"]
    edges = set()
    for _ in range(int(rng.integers(1, 201))):
        h, t = rng.choice(pool, size=2, replace=True)
        edges.add((str(h), str(rng.choice(rels)), str(t)))
    return KnowledgeEdgeSet(edges=edges), vocab


def test_criterion_2_oracle_suite():
    start = time.time()
    rng = np.random.default_rng(22)
    for i in range(100):
        corpus, vocab, C = _random_corpus(rng)
        got = build_internal_matrix(corpus, vocab).values
        assert np.array_equal(got, _brute_internal(corpus, C)), f"corpus {i}"

    for i in range(100):
        edge_set, vocab = _random_graph(rng)
        verb_m, noun_m, act_m = build_external_matrix(edge_set, vocab)
        rels = edge_set.selected_relations
        verb_lemmas = [vocab.verbs[k] for k in sorted(vocab.verbs)]
        noun_lemmas = [vocab.nouns[k] for k in sorted(vocab.nouns)]
        assert np.array_equal(verb_m.values,
                              _brute_paths(edge_set.edges, rels, verb_lemmas)), i
        assert np.array_equal(noun_m.values,
                              _brute_paths(edge_set.edges, rels, noun_lemmas)), i
        for a in vocab.activities:
            for b in vocab.activities:
                va, na = vocab.activities[a]
                vb, nb = vocab.activities[b]
                expect = 0 if a == b else (verb_m.values[va, vb]
                                           + noun_m.values[na, nb])
                assert act_m.values[a, b] == expect

    worst_gap = 0.0
    for M in range(2, 7):
        u = Tensor(rng.uniform(0.2, 5.0, size=M))
        total = sum(float(permutation_probability(u, list(p)).data)
                    for p in itertools.permutations(range(M)))
        worst_gap = max(worst_gap, abs(total - 1.0))
        assert abs(total - 1.0) < 1e-10, f"M={M}: {total}"

    elapsed = time.time() - start
    record_verdict(2, elapsed < 60,
                   f"oracle suite exact on 100+100 cases, perm-sum gap "
                   f"{worst_gap:.1e}, {elapsed:.1f}s")
    assert elapsed < 60, f"oracle suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: closed forms

def test_criterion_3_closed_forms():
    u = Tensor(np.array([3.0, 2.0, 1.0]))
    p_ideal = float(permutation_probability(u, [0, 1, 2]).data)
    loss, skipped = trul_loss([u])
    assert abs(p_ideal - 1.0 / 3.0) < 1e-12
    assert abs(float(loss.data) - (-math.log(1.0 / 3.0))) < 1e-12
    assert skipped == 0

    w = relative_weights(Tensor(np.array([2.0, 3.0]))).data
    assert np.allclose(w, [0.4, 0.6], atol=1e-12)

    from oracles import CooccurrenceSet
    label = single_label(0, CooccurrenceSet(targets=(0,),
                                            scores={1: 1, 2: 1, 3: 1, 4: 1}),
                         alpha=0.4, num_classes=5).probs
    assert np.allclose(label, [0.6, 0.1, 0.1, 0.1, 0.1], atol=1e-12)
    record_verdict(3, True, "closed forms exact (ranking prob, weights, label)")


# ---------------------------------------------------------------------------
# criterion 4: temperature raises entropy, never moves the argmax

def test_criterion_4_temperature_behavior():
    rng = np.random.default_rng(44)
    grid = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    for i in range(100):
        C = int(rng.integers(3, 20))
        logits = rng.normal(scale=3.0, size=C)
        while np.isclose(np.sort(logits)[-1], np.sort(logits)[-2]):
            logits = rng.normal(scale=3.0, size=C)
        entropies, argmaxes = [], []
        for u in grid:
            p = np.exp(adjust_distribution(Tensor(logits), Tensor(u)).data)
            entropies.append(float(-(p * np.log(p)).sum()))
            argmaxes.append(int(p.argmax()))
        assert all(b > a for a, b in zip(entropies, entropies[1:])), i
        assert len(set(argmaxes)) == 1 and argmaxes[0] == int(logits.argmax()), i
    record_verdict(4, True, "entropy strictly increasing in temperature, "
                            "argmax invariant, 100 logit vectors")


# ---------------------------------------------------------------------------
# criterion 5: the descending assignment is the ranking-loss minimizer

def test_criterion_5_ranking_optimality():
    rng = np.random.default_rng(55)
    for _ in range(50):
        M = int(rng.integers(2, 6))
        values = np.sort(rng.uniform(0.1, 5.0, size=M))[::-1].copy()
        while len(set(values.round(12))) < M:
            values = np.sort(rng.uniform(0.1, 5.0, size=M))[::-1].copy()
        losses = {}
        for perm in itertools.permutations(range(M)):
            u = Tensor(values[list(perm)])
            losses[perm] = float(trul_loss([u])[0].data)
        best = min(losses, key=losses.get)
        assert best == tuple(range(M)), f"{values}: best order {best}"
    record_verdict(5, True, "descending uncertainty minimizes the ranking "
                            "loss for all permutations, M in 2..5")


# ---------------------------------------------------------------------------
# criteria 6-9 share one set of trained models per seed

@pytest.fixture(scope="session")
def trained_runs():
    runs = []
    for seed in SEEDS:
        t0 = time.time()
        spec = SyntheticSpec(num_classes=20, videos=50, segments_per_video=20,
                             segment_seconds=4.0, feature_noise=2.0, seed=seed)
        syn = generate_synthetic(spec)
        train_corpus = AnnotationCorpus(syn.corpus.videos[:40])
        test_corpus = AnnotationCorpus(syn.corpus.videos[40:])
        cfg = TrainConfig.desk_profile(epochs=DESK_EPOCHS, seed=seed)
        base_cfg = TrainConfig.desk_profile(epochs=DESK_EPOCHS, seed=seed,
                                            alpha=0.0, beta=0.0, gamma=0.0)
        model, _ = train(cfg, train_corpus, syn.store, syn.vocab)
        boosted_seconds = time.time() - t0
        base_model, _ = train(base_cfg, train_corpus, syn.store, syn.vocab)
        window = cfg.window()
        observed, truths, _ = window_samples(test_corpus, syn.store, window)
        probs, uncs = evaluate_model(model, observed, window.n_a)
        base_probs, _ = evaluate_model(base_model, observed, window.n_a)
        runs.append({
            "seed": seed, "syn": syn, "test_corpus": test_corpus,
            "config": cfg, "window": window, "model": model,
            "probs": probs, "uncs": uncs, "truths": truths,
            "base_probs": base_probs, "base_truths": truths,
            "boosted_seconds": boosted_seconds,
            "total_seconds": time.time() - t0,
        })
    return runs


def _violations(values, direction):
    """Adjacent-pair violations of a monotone direction, as magnitudes."""
    out = []
    for a, b in zip(values, values[1:]):
        gap = (a - b) if direction == "up" else (b - a)
        if gap > 0:
            out.append(gap)
    return out


def test_criterion_6_noise_direction(trained_runs):
    t0 = time.time()
    acc_curves, u_curves = [], []
    for run in trained_runs:
        accs, us = [], []
        for eta in ETAS:
            store = pollute(run["syn"].store,
                            NoiseConfig(eta=eta, seed=run["seed"] + 777))
            observed, truths, _ = window_samples(run["test_corpus"], store, run["window"])
            probs, uncs = evaluate_model(run["model"], observed, run["window"].n_a)
            accs.append(topk_accuracy(probs[:, REJECT_STEP, :], truths, 5))
            us.append(float(uncs.mean()))
        acc_curves.append(accs)
        u_curves.append(us)
    mean_acc = np.mean(acc_curves, axis=0)
    mean_u = np.mean(u_curves, axis=0)
    u_viol = _violations(mean_u, "up")
    acc_viol = _violations(mean_acc, "down")
    ok = (len(u_viol) <= 1 and all(v < 0.02 * mean_u.max() for v in u_viol)
          and len(acc_viol) <= 1 and all(v < 0.02 for v in acc_viol))
    budget = sum(r["boosted_seconds"] for r in trained_runs) + (time.time() - t0)
    record_verdict(6, ok and budget < 300,
                   f"mean u {np.round(mean_u, 4).tolist()} rising, top-5 "
                   f"{np.round(mean_acc, 3).tolist()} falling over noise "
                   f"levels {ETAS}, {budget:.0f}s")
    assert ok, f"u curve {mean_u}, accuracy curve {mean_acc}"
    assert budget < 300, f"noise-direction budget {budget:.0f}s"


def test_criterion_7_rejection_direction(trained_runs):
    curves = []
    for run in trained_runs:
        probs = run["probs"][:, REJECT_STEP, :]
        entropy = -(probs * np.log(np.clip(probs, 1e-300, None))).sum(axis=1)
        curve = rejection_curve(probs, run["truths"], entropy, REJECT_FRACTIONS)
        curves.append(curve.accuracies)
    mean_curve = np.mean(curves, axis=0)
    gain = mean_curve[-1] - mean_curve[0]
    viol = _violations(mean_curve, "up")
    ok = gain >= 0.01 and len(viol) <= 1
    record_verdict(7, ok, f"rejection curve {np.round(mean_curve, 4).tolist()} "
                          f"over fractions {REJECT_FRACTIONS}, gain "
                          f"{100 * gain:.1f} points")
    assert ok, f"curve {mean_curve}, gain {gain}"


def test_criterion_8_uncertainty_boost_benefit(trained_runs):
    boosted, plain = [], []
    for run in trained_runs:
        n_a = run["window"].n_a
        boosted.append([topk_accuracy(run["probs"][:, s, :], run["truths"], 5)
                        for s in range(n_a)])
        plain.append([topk_accuracy(run["base_probs"][:, s, :],
                                    run["base_truths"], 5) for s in range(n_a)])
    margins = np.mean(boosted, axis=0) - np.mean(plain, axis=0)
    budget = sum(r["total_seconds"] for r in trained_runs)
    ok = margins.min() >= 0 and margins.mean() >= 0.005
    record_verdict(8, ok and budget < 600,
                   f"boosted-minus-plain top-5 margin mean "
                   f"{100 * margins.mean():.1f} points, min "
                   f"{100 * margins.min():.1f}, {budget:.0f}s")
    assert ok, f"margins {margins}"
    assert budget < 600, f"training budget {budget:.0f}s"


def test_criterion_9_temporal_ordering(trained_runs):
    means = []
    for run in trained_runs:
        grid = run["config"].tau_a_grid
        observed, members, _ = family_batches(run["test_corpus"], run["syn"].store,
                                              run["window"], grid)
        assert len(observed), "no held-out families"
        with ad.no_grad():
            u_mat = _family_uncertainty(run["model"], observed, members).data
        means.append(float(np.mean([kendall_tau(row) for row in u_mat])))
    overall = float(np.mean(means))
    ok = overall > 0
    record_verdict(9, ok, f"held-out family Kendall tau per seed "
                          f"{np.round(means, 3).tolist()}, mean {overall:.3f}")
    assert ok, f"kendall means {means}"


# ---------------------------------------------------------------------------
# criterion 10: every CLI stage is byte-identical across same-seed reruns

def _snapshot(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _run_pipeline(root):
    root = Path(root)
    gen, stats = root / "gen", root / "stats"
    train_out, eval_out = root / "train", root / "eval"
    argv = [["--seed", "3", "--out", str(gen), "gen", "--classes", "8",
             "--branching", "3", "--videos", "8", "--segments", "10",
             "--dim", "8"]]
    corpus = ["--annotations", str(gen / "annotations.csv"),
              "--verbs", str(gen / "verbs.csv"),
              "--nouns", str(gen / "nouns.csv")]
    argv.append(["--out", str(stats), "stats"] + corpus)
    argv.append(["--seed", "3", "--out", str(train_out), "train"] + corpus
                + ["--features", str(gen / "features.csv"),
                   "--profile", "desk", "--epochs", "2", "--batch-size", "16"])
    argv.append(["--out", str(eval_out), "eval"] + corpus
                + ["--features", str(gen / "features.csv"),
                   "--checkpoint", str(train_out / "model.ckpt"),
                   "--mode", "metrics"])
    for args in argv:
        assert cli_main(args) == EXIT_OK, args
    return _snapshot(root)


def test_criterion_10_determinism(tmp_path):
    root = tmp_path / "run"
    first = _run_pipeline(root)
    shutil.rmtree(root)
    second = _run_pipeline(root)
    assert first.keys() == second.keys()
    diff = [str(k) for k in first if first[k] != second[k]]
    record_verdict(10, not diff,
                   f"gen/stats/train/eval byte-identical across reruns "
                   f"({len(first)} files)")
    assert not diff, f"differing files: {diff}"
