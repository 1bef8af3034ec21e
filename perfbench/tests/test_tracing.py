import pytest

import lossgate.data
import lossgate.model
import lossgate.trainer
import tracing
from tracing import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert covered([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == pytest.approx(3.0)
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(0, "trainer.run", 0.0, 10.0, -1),
        Span(0, "trainer.step_warmup", 1.0, 4.0, 0),
        Span(0, "model.forward", 1.5, 2.5, 1),
        Span(0, "model.evaluate", 6.0, 7.0, 0),
        Span(0, "model.forward", 8.0, 8.5, -1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 0.5])


def test_recording_restores_the_program_and_nests_spans():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.SPANNED]
    hash_bucket = lossgate.data.hash_bucket
    examples = lossgate.data.generate_toy_corpus(80, seed=3)
    cfg = lossgate.trainer.TrainerConfig(mode="train-all", epochs=1, batch_size=8)
    plain = lossgate.trainer.Trainer(cfg, examples).run().to_json_dict()

    tracer = Tracer()
    with tracer.recording(0):
        fresh = [lossgate.data.Example(ex.text, ex.tokens, ex.label) for ex in examples]
        traced = lossgate.trainer.Trainer(cfg, fresh).run().to_json_dict()

    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert lossgate.data.hash_bucket is hash_bucket
    plain.pop("overhead_wall_seconds")
    traced.pop("overhead_wall_seconds")
    assert traced == plain
    names = [s.name for s in tracer.spans]
    assert names.count("model.forward") == names.count("model.backward") == 10
    run = names.index("trainer.run")
    forwards = [s for s in tracer.spans if s.name == "model.forward"]
    assert all(s.parent == run for s in forwards)
    metrics = tracing.layer_metrics(tracer, [0], wall_t_norm=1.0, overhead_share=0.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["model.forward.calls"] == 10
    assert metrics["data.hash.calls"] > 0
    assert 0.0 < metrics["trainer.self_s"] < sum(s.end - s.start for s in tracer.spans if s.name == "trainer.run")
