"""Class co-occurrence statistics from annotations and a knowledge-graph dump.

Two sources feed the soft-label construction: temporal statistics (class
pairs that evolve from the same antecedent class inside the videos) and
semantic statistics (length-2 paths between lemmas in an edge dump,
restricted to a curated relation set).
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RELATIONS",
    "DataError",
    "Segment", "Video", "AnnotationCorpus", "Vocabulary",
    "UncertaintyMatrix", "KnowledgeEdgeSet",
    "build_internal_matrix", "build_external_matrix",
    "normalize_lemma",
    "read_annotations", "read_vocabulary", "read_edge_dump",
    "write_matrix_csv", "read_matrix_csv",
]

# Relation catalogue used by the external matrix builder.
DEFAULT_RELATIONS = frozenset({
    "MotivatedByGoal", "HasPrerequisite", "MannerOf", "UsedFor", "Entails",
    "LocatedNear", "HasFirstSubevent", "HasSubevent", "HasLastSubevent",
    "Causes", "CreatedBy", "ReceivesAction", "CausesDesire", "CapableOf",
})


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class Segment:
    start: float
    stop: float
    activity_id: int


@dataclass
class Video:
    video_id: str
    segments: list[Segment]

    def __post_init__(self):
        self.segments = sorted(self.segments, key=lambda s: s.start)
        for s in self.segments:
            if not s.start < s.stop:
                raise DataError(
                    f"video {self.video_id}: segment start {s.start} >= stop {s.stop}")


@dataclass
class AnnotationCorpus:
    videos: list[Video]


@dataclass
class Vocabulary:
    """Verb/noun lemma maps plus the dense activity id -> (verb, noun) map."""

    verbs: dict[int, str]
    nouns: dict[int, str]
    activities: dict[int, tuple[int, int]]

    def __post_init__(self):
        C = len(self.activities)
        if sorted(self.activities) != list(range(C)):
            raise DataError("activity ids must be dense 0..C-1")
        if len(set(self.activities.values())) != C:
            raise DataError("duplicate (verb, noun) pair in activities")
        for aid, (v, n) in self.activities.items():
            if v not in self.verbs or n not in self.nouns:
                raise DataError(f"activity {aid} references unknown verb/noun ({v},{n})")

    @property
    def num_activities(self):
        return len(self.activities)


@dataclass
class UncertaintyMatrix:
    """Symmetric nonnegative class-pair score matrix with a zero diagonal."""

    kind: str  # internal | external-verb | external-noun | external-activity
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"matrix must be square, got {v.shape}")
        if (v < 0).any():
            raise DataError("matrix entries must be nonnegative")
        if not np.array_equal(v, v.T):
            raise DataError("matrix must be symmetric")
        if np.diagonal(v).any():
            raise DataError("matrix diagonal must be zero")
        self.values = v


@dataclass
class KnowledgeEdgeSet:
    edges: set[tuple[str, str, str]]  # (head, relation, tail)
    selected_relations: frozenset[str] = DEFAULT_RELATIONS


def normalize_lemma(text):
    """Lowercase and join words with underscores (knowledge-graph surface form)."""
    return "_".join(text.strip().lower().split())


# ---------------------------------------------------------------------------
# builders

def build_internal_matrix(corpus, vocab):
    """Count, per class pair, the instance pairs that share an antecedent class.

    Antecedence is immediate temporal adjacency: within each video, segment k
    is the antecedent of segment k+1.  For each antecedent class the successor
    instances form a multiset; distinct successor classes (a, b) contribute
    count(a) * count(b) shared-antecedent instance pairs.
    """
    C = vocab.num_activities
    successors = defaultdict(Counter)
    for video in corpus.videos:
        for seg_idx, seg in enumerate(video.segments):
            if seg.activity_id not in vocab.activities:
                raise DataError(
                    f"unknown activity id {seg.activity_id} in video "
                    f"{video.video_id} segment {seg_idx}")
            if seg_idx == 0:
                continue
            antecedent = video.segments[seg_idx - 1].activity_id
            successors[antecedent][seg.activity_id] += 1

    values = np.zeros((C, C), dtype=np.int64)
    for counter in successors.values():
        classes = sorted(counter)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                values[a, b] += counter[a] * counter[b]
                values[b, a] += counter[a] * counter[b]
    return UncertaintyMatrix("internal", values)


def _undirected_adjacency(edge_set, lemma_to_id, size):
    """Multiplicity of selected-relation edges between vocab lemmas."""
    adj = np.zeros((size, size), dtype=np.int64)
    seen = set()
    for head, rel, tail in edge_set.edges:
        if rel not in edge_set.selected_relations:
            continue
        h, t = normalize_lemma(head), normalize_lemma(tail)
        if h == t:
            continue
        key = (min(h, t), max(h, t), rel)
        if key in seen:  # an edge and its reverse are the same undirected edge
            continue
        seen.add(key)
        if h in lemma_to_id and t in lemma_to_id:
            adj[lemma_to_id[h], lemma_to_id[t]] += 1
            adj[lemma_to_id[t], lemma_to_id[h]] += 1
    return adj


def _path_matrix(edge_set, lemmas):
    """Length-2 undirected path counts between vocab lemmas.

    The intermediate node may be any lemma in the dump, so the adjacency is
    built over the union of vocab lemmas and all edge endpoints.
    """
    universe = {normalize_lemma(l) for l in lemmas}
    for head, rel, tail in edge_set.edges:
        if rel in edge_set.selected_relations:
            universe.add(normalize_lemma(head))
            universe.add(normalize_lemma(tail))
    ordered = sorted(universe)
    lemma_to_id = {l: i for i, l in enumerate(ordered)}
    adj = _undirected_adjacency(edge_set, lemma_to_id, len(ordered))
    paths = adj @ adj
    np.fill_diagonal(paths, 0)

    idx = [lemma_to_id[normalize_lemma(l)] for l in lemmas]
    return paths[np.ix_(idx, idx)]


def build_external_matrix(edges, vocab):
    """Build verb, noun and activity matrices from the knowledge-graph dump.

    An activity pair's score is the verb-pair score plus the noun-pair score.
    """
    if not edges.selected_relations:
        raise DataError("selected_relations must be nonempty")
    verb_lemmas = [vocab.verbs[i] for i in sorted(vocab.verbs)]
    noun_lemmas = [vocab.nouns[i] for i in sorted(vocab.nouns)]
    verb_ids = {vid: i for i, vid in enumerate(sorted(vocab.verbs))}
    noun_ids = {nid: i for i, nid in enumerate(sorted(vocab.nouns))}

    verb_vals = _path_matrix(edges, verb_lemmas)
    noun_vals = _path_matrix(edges, noun_lemmas)

    C = vocab.num_activities
    act_vals = np.zeros((C, C), dtype=np.int64)
    for a in range(C):
        va, na = vocab.activities[a]
        for b in range(a + 1, C):
            vb, nb = vocab.activities[b]
            score = (verb_vals[verb_ids[va], verb_ids[vb]]
                     + noun_vals[noun_ids[na], noun_ids[nb]])
            act_vals[a, b] = score
            act_vals[b, a] = score
    return (UncertaintyMatrix("external-verb", verb_vals),
            UncertaintyMatrix("external-noun", noun_vals),
            UncertaintyMatrix("external-activity", act_vals))


# ---------------------------------------------------------------------------
# file formats

@contextmanager
def _text_errors(path):
    """Report bytes that are not UTF-8, or that the csv module refuses (such
    as a field over its 131,072-character limit), as a DataError on path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from None


def read_annotations(path):
    """Annotation CSV: video_id,start_s,stop_s,verb_id,noun_id."""
    pair_rows = []
    with _text_errors(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["video_id", "start_s", "stop_s", "verb_id", "noun_id"]
        if reader.fieldnames != expected:
            raise DataError(f"{path}: expected header {expected}, got {reader.fieldnames}")
        for row in reader:
            lineno = reader.line_num  # physical line: DictReader skips blank ones
            if None in row:  # DictReader files the fields past the header under None
                raise DataError(f"{path}:{lineno}: more fields than the header in {row}")
            try:
                vid = row["video_id"]
                start, stop = float(row["start_s"]), float(row["stop_s"])
                verb, noun = int(row["verb_id"]), int(row["noun_id"])
            except (TypeError, ValueError):
                raise DataError(f"{path}:{lineno}: malformed row {row}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise DataError(f"{path}:{lineno}: non-finite start_s or stop_s in {row}")
            pair_rows.append((vid, start, stop, verb, noun))
    return pair_rows


def corpus_from_rows(rows, vocab):
    """Resolve (verb, noun) annotation rows against a vocabulary."""
    pair_to_activity = {vn: aid for aid, vn in vocab.activities.items()}
    by_video = defaultdict(list)
    for vid, start, stop, verb, noun in rows:
        if (verb, noun) not in pair_to_activity:
            raise DataError(f"video {vid}: unknown (verb, noun) pair ({verb},{noun})")
        by_video[vid].append(Segment(start, stop, pair_to_activity[(verb, noun)]))
    return AnnotationCorpus([Video(vid, segs) for vid, segs in sorted(by_video.items())])


def read_vocabulary(verb_path, noun_path):
    """Vocabulary CSV pair (id,lemma each); activity i is the pair (i, i)."""

    def read_map(path, id_col):
        out, first_line = {}, {}
        with _text_errors(path), open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != [id_col, "lemma"]:
                raise DataError(f"{path}: expected header [{id_col}, lemma], got {header}")
            for row in reader:
                lineno = reader.line_num
                try:
                    ident, lemma = row
                    ident = int(ident)
                except ValueError:  # also a row of other than two fields
                    raise DataError(f"{path}:{lineno}: malformed row {row}")
                if ident in out:
                    raise DataError(f"{path}:{lineno}: {id_col} {ident} repeats line "
                                    f"{first_line[ident]}")
                out[ident], first_line[ident] = lemma, lineno
        return out

    verbs = read_map(verb_path, "verb_id")
    nouns = read_map(noun_path, "noun_id")
    if sorted(verbs) != sorted(nouns):
        raise DataError("implicit activities need matching verb and noun ids")
    return Vocabulary(verbs, nouns, {i: (i, i) for i in sorted(verbs)})


def read_edge_dump(path, selected_relations=DEFAULT_RELATIONS):
    """Edge dump TSV: head<TAB>relation<TAB>tail, one edge per line."""
    edges = set()
    with _text_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(parts):
                raise DataError(f"{path}:{lineno}: malformed edge line {line!r}")
            edges.add((parts[0], parts[1], parts[2]))
    return KnowledgeEdgeSet(edges=edges, selected_relations=frozenset(selected_relations))


def write_matrix_csv(matrix, path):
    values = matrix.values
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id"] + [str(j) for j in range(values.shape[1])])
        for i in range(values.shape[0]):
            writer.writerow([str(i)] + [str(int(v)) for v in values[i]])


def read_matrix_csv(path, kind="internal"):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = len(header) - 1
        values = np.zeros((n, n), dtype=np.int64)
        for row in reader:
            i = int(row[0])
            values[i] = [int(v) for v in row[1:]]
    return UncertaintyMatrix(kind, values)
