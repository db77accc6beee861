import math

import numpy as np
import pytest

from wavebench import inputs


def _corpus_bytes(seed):
    return [(f.name, f.blob, f.label, f.expected_error) for f in inputs.make_corpus(seed)]


def _rounds(seed, count):
    lengths = inputs.HopLengths(seed)
    return [lengths.next_round() for _ in range(count)]


def test_same_seed_gives_byte_identical_inputs():
    assert _corpus_bytes(3) == _corpus_bytes(3)
    assert inputs.corpus_warmup_blob(3) == inputs.corpus_warmup_blob(3)
    assert inputs.corpus_pass_order(3, 2) == inputs.corpus_pass_order(3, 2)
    assert _rounds(3, 4) == _rounds(3, 4)
    assert inputs.hop_signal(3, 20_000).tobytes() == inputs.hop_signal(3, 20_000).tobytes()


def test_other_seed_gives_other_inputs():
    assert _corpus_bytes(3) != _corpus_bytes(4)
    assert _rounds(3, 2) != _rounds(4, 2)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_hop_lengths_are_distinct_in_range_and_include_the_extremes(seed):
    rounds = _rounds(seed, 12)
    flat = [n for r in rounds for n in r]
    assert len(set(flat)) == len(flat)
    assert all(inputs.HOP_MIN <= n <= inputs.HOP_MAX for n in flat)
    assert {inputs.HOP_MIN, inputs.HOP_MAX} <= set(rounds[0])
    assert inputs.HOP_WARMUP_SAMPLES not in flat


def test_each_round_puts_one_length_in_every_stratum():
    edges = np.geomspace(inputs.HOP_MIN, inputs.HOP_MAX, inputs.HOP_STRATA + 1)
    for lengths in _rounds(2, 5):
        for i, n in enumerate(sorted(lengths)):
            assert edges[i] - 2 <= n <= edges[i + 1] + 2


def test_rounds_after_the_first_sit_near_the_stratum_centres():
    width = math.log(inputs.HOP_MAX / inputs.HOP_MIN) / inputs.HOP_STRATA
    for lengths in _rounds(4, 12)[1:]:
        for i, n in enumerate(sorted(lengths)):
            centre = math.log(inputs.HOP_MIN) + (i + 0.5) * width
            assert abs(math.log(n) - centre) <= inputs.HOP_JITTER * width / 2 + 1e-3


def test_corpus_reads_as_labelled(tmp_path):
    import wavehop

    files = inputs.make_corpus(5)
    assert sum(f.expected_error is not None for f in files) == len(inputs.CORPUS_MALFORMED)
    assert sum(f.label == 1 for f in files) == inputs.CORPUS_ANOMALOUS
    for f in files:
        path = tmp_path / f.name
        path.write_bytes(f.blob)
        if f.expected_error:
            with pytest.raises(getattr(wavehop, f.expected_error)):
                wavehop.read_wav(path)
        else:
            assert len(wavehop.read_wav(path)) == inputs.CORPUS_SAMPLES
