"""Byte fuzzers for the input readers: every input parses or raises DataError.

Each reader gets arbitrary bytes (alone and after a valid header) and small
edits of a valid file.  Example sizes and counts are bounded so that the
whole module runs in seconds.
"""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import edit_bytes
from uban.cooccur import (DataError, KnowledgeEdgeSet, Vocabulary, read_annotations,
                          read_edge_dump, read_vocabulary)
from uban.model import AnticipationModel, load_checkpoint, save_checkpoint


def _parse(reader, *blobs):
    """reader on temporary files holding blobs: its result, or None on DataError."""
    paths = []
    try:
        for blob in blobs:
            fd, path = tempfile.mkstemp()
            paths.append(path)
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
        try:
            return reader(*paths)
        except DataError:
            return None
    finally:
        for path in paths:
            os.unlink(path)


MUTATION_BYTES = [b",", b"\n", b"\r", b"\t", b'"', b"\x00", b"\xff", b" ", b"-",
                  b"e", b"9", b".", b"x", b"nan", b"\xc3\xa9", b"{", b"]"]


def _edits(valid):
    """Up to four single-byte replacements, insertions or deletions of valid."""
    return st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                              st.integers(0, len(valid) - 1),
                              st.sampled_from(MUTATION_BYTES)), min_size=1, max_size=4)


# ---------------------------------------------------------------------------
# annotations

ANNOTATION_HEADER = b"video_id,start_s,stop_s,verb_id,noun_id\r\n"
VALID_ANNOTATIONS = (ANNOTATION_HEADER
                     + b"v0,0.0,1.0,0,0\r\nv0,1.0,2.5,1,1\r\nv1,0.0,4.0,2,2\r\n")


def _check_annotations(rows):
    if rows is not None:
        for vid, start, stop, verb, noun in rows:
            assert isinstance(vid, str) and type(verb) is int and type(noun) is int
            assert math.isfinite(start) and math.isfinite(stop)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_read_annotations_fuzz_bytes(blob):
    _check_annotations(_parse(read_annotations, ANNOTATION_HEADER + blob))
    _check_annotations(_parse(read_annotations, blob))


@settings(max_examples=150, deadline=None)
@given(_edits(VALID_ANNOTATIONS))
def test_read_annotations_fuzz_mutations(edit_list):
    _check_annotations(_parse(read_annotations, edit_bytes(VALID_ANNOTATIONS, edit_list)))


# ---------------------------------------------------------------------------
# vocabulary

VALID_NOUNS = b"noun_id,lemma\r\n0,knife\r\n1,pan\r\n2,cup\r\n"
VALID_VERBS = b"verb_id,lemma\r\n0,cut\r\n1,wash\r\n2,pour\r\n"


def _check_vocabulary(vocab):
    assert vocab is None or isinstance(vocab, Vocabulary)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_read_vocabulary_fuzz_bytes(blob):
    _check_vocabulary(_parse(read_vocabulary, b"verb_id,lemma\r\n" + blob, VALID_NOUNS))
    _check_vocabulary(_parse(read_vocabulary, blob, VALID_NOUNS))


@settings(max_examples=150, deadline=None)
@given(_edits(VALID_VERBS))
def test_read_vocabulary_fuzz_mutations(edit_list):
    _check_vocabulary(_parse(read_vocabulary, edit_bytes(VALID_VERBS, edit_list), VALID_NOUNS))


# ---------------------------------------------------------------------------
# knowledge-graph edge dump

@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_read_edge_dump_fuzz_bytes(blob):
    edges = _parse(read_edge_dump, blob)
    if edges is not None:
        assert isinstance(edges, KnowledgeEdgeSet)
        assert all(len(edge) == 3 and all(edge) for edge in edges.edges)


# ---------------------------------------------------------------------------
# checkpoints

def _tiny_checkpoint():
    model = AnticipationModel(feature_dim=2, hidden_dim=1, num_classes=2, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, model, meta={"tau_o": 1.5})
        with open(path, "rb") as fh:
            return fh.read()


VALID_CHECKPOINT = _tiny_checkpoint()
CHECKPOINT_HEAD = VALID_CHECKPOINT[:12]  # magic and version


def _check_checkpoint(loaded):
    if loaded is not None:
        model, meta = loaded
        assert isinstance(model, AnticipationModel) and isinstance(meta, dict)
        assert all(t.data.dtype == np.float64 for t in model.params.values())


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_load_checkpoint_fuzz_bytes(blob):
    _check_checkpoint(_parse(load_checkpoint, CHECKPOINT_HEAD + blob))
    _check_checkpoint(_parse(load_checkpoint, blob))


@settings(max_examples=200, deadline=None)
@given(_edits(VALID_CHECKPOINT))
def test_load_checkpoint_fuzz_mutations(edit_list):
    _check_checkpoint(_parse(load_checkpoint, edit_bytes(VALID_CHECKPOINT, edit_list)))
