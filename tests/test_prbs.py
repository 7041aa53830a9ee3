import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim import PrbsAlignmentError, prbs_align, prbs_generate
from qracsim.prbs import DEFAULT_TAPS, PrbsSequence


def test_period_length():
    seq = prbs_generate(7)
    assert seq.period == 127
    assert seq.bits.size == 127


def test_balance_property():
    bits = prbs_generate(7).bits
    assert int(bits.sum()) == 64
    assert int((1 - bits).sum()) == 63


@pytest.mark.parametrize("order", range(3, 12))
def test_maximal_period(order):
    # oracle: a sequence of period 2^k - 1 differs from every one of its
    # proper-divisor rotations
    seq = prbs_generate(order)
    period = seq.period
    divisors = [d for d in range(1, period) if period % d == 0]
    for d in divisors:
        assert np.any(seq.bits != np.roll(seq.bits, d))


def test_seeds_give_cyclic_shifts():
    base = prbs_generate(7)
    other = prbs_generate(7, seed=0b1010101)
    shifts = [
        s for s in range(base.period) if np.array_equal(np.roll(base.bits, -s), other.bits)
    ]
    assert len(shifts) == 1


def test_invalid_order():
    with pytest.raises(ValueError, match="unsupported"):
        prbs_generate(2)
    with pytest.raises(ValueError, match="unsupported"):
        prbs_generate(24)


def test_zero_seed_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        prbs_generate(7, seed=0)


def test_align_clean_shift():
    ref = prbs_generate(7)
    observed = np.roll(ref.bits, -17)
    assert prbs_align(observed, ref) == 17


def test_align_with_flips():
    ref = prbs_generate(7)
    recovered = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        offset = int(rng.integers(0, ref.period))
        observed = np.array(ref.bits[(np.arange(ref.period) + offset) % ref.period])
        flips = rng.random(ref.period) < 0.05
        observed = observed ^ flips.astype(np.uint8)
        if prbs_align(observed, ref) == offset:
            recovered += 1
    assert recovered == 200


def test_align_with_erasures():
    ref = prbs_generate(7)
    observed = np.array(ref.bits[(np.arange(254) + 31) % ref.period], dtype=np.int64)
    observed[::5] = -1
    assert prbs_align(observed, ref) == 31


def test_align_random_bits_fails():
    ref = prbs_generate(7)
    rng = np.random.default_rng(99)
    noise = rng.integers(0, 2, size=3 * ref.period)
    with pytest.raises(PrbsAlignmentError, match="agreement"):
        prbs_align(noise, ref)


def test_align_tie_breaks_to_smallest_offset():
    ref = prbs_generate(7)
    # an all-zero stream agrees equally (63 positions) with every rotation
    zeros = np.zeros(ref.period, dtype=np.int64)
    assert prbs_align(zeros, ref, min_agreement=0.3) == 0


def test_align_requires_full_period():
    ref = prbs_generate(7)
    with pytest.raises(ValueError, match="shorter"):
        prbs_align(ref.bits[:100], ref)


def test_align_requires_a_1d_stream():
    ref = prbs_generate(3)
    with pytest.raises(ValueError, match="^observed must be a 1-d bit stream$"):
        prbs_align(np.tile(ref.bits, (2, 1)), ref)


def test_align_validates_symbols():
    ref = prbs_generate(7)
    bad = np.full(ref.period, 2, dtype=np.int64)
    with pytest.raises(ValueError, match="entries"):
        prbs_align(bad, ref)


def test_non_integer_order_and_seed_named():
    with pytest.raises(TypeError, match=r"^order must be an integer, got 7\.0$"):
        prbs_generate(7.0)
    with pytest.raises(TypeError, match=r"^seed must be an integer, got 3\.0$"):
        prbs_generate(7, seed=3.0)
    assert np.array_equal(prbs_generate(np.int64(7), seed=np.uint8(3)).bits, prbs_generate(7, seed=3).bits)


def test_align_rejects_non_sequence_reference():
    stream = prbs_generate(3).bits
    with pytest.raises(TypeError, match="^reference must be a PrbsSequence, got str$"):
        prbs_align(stream, "x")
    with pytest.raises(TypeError, match="^reference must be a PrbsSequence, got ndarray$"):
        prbs_align(stream, stream)


@pytest.mark.parametrize(
    "bits",
    [
        np.array([2, 0, 1, 0, 1, 1, 0]),
        np.array([-1, 0, 1, 0, 1, 1, 0]),
        np.array([256, 0, 1, 0, 1, 1, 0]),
        np.array([2, 0, 1, 0, 1, 1, 0], dtype=np.uint8),
        np.array([0.5, 0, 1, 0, 1, 1, 0]),
        np.array([np.nan, 0, 1, 0, 1, 1, 0]),
    ],
    ids=["int64 2", "int64 -1", "int64 256", "uint8 2", "float 0.5", "nan"],
)
def test_sequence_rejects_non_bits(bits):
    # cast to uint8 first, -1 would wrap to 255, 256 to 0 and 0.5 truncate to 0
    with pytest.raises(ValueError, match="^bits must hold only 0 and 1$"):
        PrbsSequence(3, bits)


def test_sequence_rejects_wrong_shape():
    bits = prbs_generate(3).bits
    for shaped in (bits[:6], np.tile(bits, 2), bits.reshape(7, 1)):
        message = re.escape(f"bits must be a 1-d array of 7 bits, got shape {shaped.shape}")
        with pytest.raises(ValueError, match=message):
            PrbsSequence(3, shaped)


def test_sequence_order_must_be_an_integer_in_range():
    bits = prbs_generate(7).bits
    with pytest.raises(TypeError, match=r"^order must be an integer, got 7\.0$"):
        PrbsSequence(7.0, bits)
    for order in (2, 24):
        with pytest.raises(ValueError, match=f"^unsupported register length {order}: choose from 3..23$"):
            PrbsSequence(order, bits)
    seq = PrbsSequence(np.int64(7), bits)
    assert type(seq.order) is int and seq.period == 127


def test_sequence_accepts_any_bit_dtype():
    bits = prbs_generate(3).bits
    for dtype in (bool, np.int8, np.int64, float):
        seq = PrbsSequence(3, bits.astype(dtype))
        assert seq.bits.dtype == np.uint8 and np.array_equal(seq.bits, bits)


def test_align_same_offset_for_every_stream_dtype():
    ref = prbs_generate(7)
    rng = np.random.default_rng(7)
    clean = ref.bits[(np.arange(3 * ref.period) + 45) % ref.period].astype(np.int64)
    clean ^= (rng.random(clean.size) < 0.1).astype(np.int64)
    erased = clean.copy()
    erased[rng.random(erased.size) < 0.4] = -1
    # bool holds no erasure, so it aligns the stream without them
    for stream, dtypes in ((clean, (bool, np.int8, np.int64, float)), (erased, (np.int8, np.int64, float))):
        assert {prbs_align(stream.astype(dtype), ref) for dtype in dtypes} == {45}


def test_seed_out_of_range_rejected():
    message = re.escape("seed must be a nonzero register state in 1..127")
    for seed in (2**7, 2**7 + 1, -1, -(2**7)):
        with pytest.raises(ValueError, match=message):
            prbs_generate(7, seed=seed)
    assert prbs_generate(7, seed=2**7 - 1).bits.size == 127


def test_align_rejects_non_bit_values():
    ref = prbs_generate(3)
    # truncating these to integers would give the valid stream 0, 1, 0, ...
    fractional = np.resize([0.7, 1.2, -0.5], ref.period)
    with pytest.raises(ValueError, match="entries"):
        prbs_align(fractional, ref)


@pytest.mark.parametrize("min_agreement", [float("nan"), -0.1, 1.5])
def test_align_rejects_bad_threshold(min_agreement):
    ref = prbs_generate(7)
    with pytest.raises(ValueError, match="min_agreement"):
        prbs_align(ref.bits, ref, min_agreement=min_agreement)


# --- oracles -----------------------------------------------------------------


def _register_oracle(order, seed):
    """One period from a bit-list Fibonacci register: element i of ``reg``
    is the bit the register outputs i steps from now."""
    reg = [(seed >> (order - 1 - i)) & 1 for i in range(order)]
    out = []
    for _ in range(2**order - 1):
        out.append(reg[0])
        feedback = 0
        for t in DEFAULT_TAPS[order]:
            feedback ^= reg[order - t]
        reg = reg[1:] + [feedback]
    return np.array(out, dtype=np.uint8)


def _heuristic_scale_oracle(order, seed):
    """The heuristic-scale generator that the doubling schedule replaced,
    kept as its oracle: a register run of ``scale * order`` bits, its scale
    grown until that run outweighs the block count, then blocks of the
    recurrence with every tap times scale."""
    taps = DEFAULT_TAPS[order]
    mask = (1 << order) - 1
    state = seed
    period = 2**order - 1
    total = period + order
    scale = 1
    while scale * scale * order < 8 * period * len(taps) / min(taps):
        scale *= 2
    head = min(total, scale * order)
    tap_mask = 0
    for t in taps:
        tap_mask |= 1 << (t - 1)
    start = []
    for _ in range(head):
        start.append((state >> (order - 1)) & 1)
        feedback = (state & tap_mask).bit_count() & 1
        state = ((state << 1) | feedback) & mask
    bits = np.empty(total, dtype=np.uint8)
    bits[:head] = start
    lags = [scale * t for t in taps]
    block = min(lags)
    for lo in range(head, total, block):
        hi = min(lo + block, total)
        out = bits[lo:hi]
        out[:] = bits[lo - lags[0] : hi - lags[0]]
        for lag in lags[1:]:
            out ^= bits[lo - lag : hi - lag]
    assert np.array_equal(bits[period:], bits[:order])
    return bits[:period]


def _align_oracle(observed, reference):
    """Brute-force O(P * n) agreements; returns (first best offset, fraction)."""
    obs = np.asarray(observed, dtype=np.int64)
    period = reference.period
    index = (np.arange(period)[:, None] + np.arange(obs.size)[None, :]) % period
    agreements = ((reference.bits[index] == obs) & (obs >= 0)).sum(axis=1)
    n_valid = int((obs >= 0).sum())
    if n_valid == 0:
        return None, None
    best = int(np.argmax(agreements))
    return best, agreements[best] / n_valid


@pytest.mark.parametrize("order", range(3, 19))
def test_generate_matches_register_oracle(order):
    mask = 2**order - 1
    for seed in (mask, 1, 5, mask // 3):
        expected = _register_oracle(order, seed)
        actual = prbs_generate(order, seed=None if seed == mask else seed).bits
        assert np.array_equal(actual, expected), f"order {order}, seed {seed}"


# orders 3..18 are checked against the register oracle above at the same seeds
@pytest.mark.parametrize("order", range(19, 24))
def test_generate_matches_heuristic_scale_oracle(order):
    mask = 2**order - 1
    for seed in (mask, 1, 5, mask // 3):
        expected = _heuristic_scale_oracle(order, seed)
        actual = prbs_generate(order, seed=None if seed == mask else seed).bits
        assert np.array_equal(actual, expected), f"order {order}, seed {seed}"


def _proper_divisors(n):
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted({d for s in small for d in (s, n // s)} - {n})


@pytest.mark.parametrize("order", range(19, 24))
def test_long_registers_satisfy_recurrence(order):
    seq = prbs_generate(order)
    bits = seq.bits
    # all-ones seed: the first register state is the first `order` output bits
    assert np.all(bits[:order] == 1)
    feedback = np.zeros_like(bits)
    for t in DEFAULT_TAPS[order]:
        feedback ^= np.roll(bits, t)  # bits[n - t], cyclically
    assert np.array_equal(bits, feedback)
    assert int(bits.sum()) == 2 ** (order - 1)
    for d in _proper_divisors(seq.period):
        assert np.any(bits != np.roll(bits, d))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    order=st.integers(3, 8),
    source=st.sampled_from(["planted", "random", "zeros"]),
    extra=st.floats(0.0, 4.0, exclude_max=True),
    flip=st.sampled_from([0.0, 0.05, 0.3]),
    erase=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    min_agreement=st.sampled_from([0.0, 0.5, 0.6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_align_matches_brute_force_oracle(order, source, extra, flip, erase, min_agreement, seed):
    ref = prbs_generate(order)
    period = ref.period
    rng = np.random.default_rng(seed)
    length = period + int(extra * period)
    if source == "planted":
        stream = ref.bits[(np.arange(length) + int(rng.integers(period))) % period].astype(np.int64)
    elif source == "random":
        stream = rng.integers(0, 2, size=length)
    else:
        stream = np.zeros(length, dtype=np.int64)
    stream ^= (rng.random(length) < flip).astype(np.int64)
    stream[rng.random(length) < erase] = -1
    best, fraction = _align_oracle(stream, ref)
    if best is None:
        with pytest.raises(ValueError, match="only erasures"):
            prbs_align(stream, ref, min_agreement=min_agreement)
    elif fraction < min_agreement:
        message = f"best agreement {fraction:.3f} below threshold {min_agreement:.3f}"
        with pytest.raises(PrbsAlignmentError, match=re.escape(message)):
            prbs_align(stream, ref, min_agreement=min_agreement)
    else:
        assert prbs_align(stream, ref, min_agreement=min_agreement) == best


def test_align_long_register():
    # period 131071 pads the correlation to 2**18 points
    ref = prbs_generate(17)
    rng = np.random.default_rng(17)
    offset = 98_765
    stream = ref.bits[(np.arange(ref.period + 40_000) + offset) % ref.period].astype(np.int8)
    stream ^= (rng.random(stream.size) < 0.2).astype(np.int8)
    stream[rng.random(stream.size) < 0.5] = -1
    assert prbs_align(stream, ref) == offset


def test_repeated_aligns_against_one_reference(monkeypatch):
    # the reference's spectrum is transformed on the first align only, and
    # every later align, of any stream length, still matches the oracle
    ref = prbs_generate(7)
    period = ref.period
    rng = np.random.default_rng(99)
    transforms = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args: transforms.append(args) or rfft(*args))
    for i in range(24):
        length = period + int(rng.integers(0, 3 * period))
        if i % 3 == 2:
            stream = rng.integers(0, 2, size=length)
        else:
            stream = ref.bits[(np.arange(length) + int(rng.integers(period))) % period].astype(np.int64)
        stream ^= (rng.random(length) < 0.15).astype(np.int64)
        stream[rng.random(length) < 0.3] = -1
        best, fraction = _align_oracle(stream, ref)
        if fraction < 0.6:
            message = f"best agreement {fraction:.3f} below threshold 0.600"
            with pytest.raises(PrbsAlignmentError, match=re.escape(message)):
                prbs_align(stream, ref)
        else:
            assert prbs_align(stream, ref) == best
    assert len(transforms) == 24 + 1
