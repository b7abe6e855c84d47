"""The benchmark's traced run wraps library functions by the names their
callers look up; renaming one of them in src/uban must fail here, not only
when the benchmark runs with tracing on."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import BINDINGS, Tracer  # noqa: E402

from uban.data import SyntheticSpec, generate_synthetic  # noqa: E402
from uban.train import TrainConfig, train  # noqa: E402


def test_every_binding_installs():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracer.originals) == {b.name for b in BINDINGS}


def test_boosted_training_calls_every_labels_binding():
    # a traced benchmark run fails on a wrapper that records no calls
    synth = generate_synthetic(SyntheticSpec(num_classes=6, branching=3, dim=6, videos=6,
                                             segments_per_video=8, seed=1))
    tracer = Tracer()
    tracer.install()
    try:
        train(TrainConfig.desk_profile(epochs=1, batch_size=16, hidden_dim=8),
              synth.corpus, synth.store, synth.vocab)
    finally:
        tracer.uninstall()
    labels = [b.name for b in BINDINGS if b.layer == "labels"]
    assert labels and [n for n in labels if tracer.calls[n] == 0] == []
