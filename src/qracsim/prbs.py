"""Maximal-length binary sequences and cyclic offset recovery.

The transmitter drives its modulators from a pseudo-random binary sequence;
decoding must first recover the cyclic offset between the detected stream
and the reference sequence.

Every register order 3..23 generates and aligns.  Generation runs a short
register loop, then fills the period in numpy blocks of a doubled-tap linear
recurrence.  Alignment folds the stream onto one period and finds the best
offset by one FFT circular cross-correlation, O(P log P) for period P, whose
agreements are rounded back to exact integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Feedback taps (polynomial exponents) giving a maximal-length register for
# each supported order.  One entry per k so generated sequences are
# reproducible by construction.
DEFAULT_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
}


class PrbsAlignmentError(RuntimeError):
    """No cyclic offset reached the required agreement fraction."""


@dataclass(frozen=True, eq=False)
class PrbsSequence:
    """One period of a maximal-length sequence with its generator metadata."""

    order: int
    taps: tuple[int, ...]
    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=np.uint8)
        if bits.size != self.period:
            raise ValueError(f"expected {self.period} bits, got {bits.size}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def period(self) -> int:
        return 2**self.order - 1

    @property
    def _correlation_size(self) -> int:
        # a power of two of at least two periods, so the correlation never wraps
        return 1 << (2 * self.period - 1).bit_length()

    @cached_property
    def _tiled_spectrum(self) -> np.ndarray:
        """Read-only rfft of two tiled periods at the correlation size,
        computed on the first alignment against this sequence."""
        spectrum = np.fft.rfft(np.tile(self.bits, 2), self._correlation_size)
        spectrum.flags.writeable = False
        return spectrum


def prbs_generate(order: int, seed: int | None = None) -> PrbsSequence:
    """Generate one full period from the default taps for the given order.

    ``seed`` is the initial register state, an integer in 1..2**order - 1
    (all ones by default); different seeds produce cyclic shifts of the same
    sequence.  The output bits obey ``b[n] = XOR_t b[n - t]`` over the taps;
    squaring the feedback polynomial over GF(2) gives the same recurrence
    with every tap doubled, so after a short register run the rest of the
    period is filled in blocks, each block one XOR of shifted slices.
    """
    if order not in DEFAULT_TAPS:
        raise ValueError(f"unsupported register length {order}: choose from 3..23")
    taps = DEFAULT_TAPS[order]
    mask = (1 << order) - 1
    state = mask if seed is None else operator.index(seed)
    if not 1 <= state <= mask:
        raise ValueError(
            f"seed must be a nonzero register state in 1..{mask} for order {order}, got {state}"
        )
    period = 2**order - 1
    # one period plus the first register state again, to check the cycle closes
    total = period + order
    # The doubled recurrence b[n] = XOR_t b[n - scale * t] needs a register
    # run of scale * order bits and then fills blocks of scale * min(taps)
    # bits; grow the scale until the run outweighs the number of blocks.
    scale = 1
    while scale * scale * order < 8 * period * len(taps) / min(taps):
        scale *= 2
    head = min(total, scale * order)
    tap_mask = 0
    for t in taps:
        tap_mask |= 1 << (t - 1)
    top = order - 1
    start = []
    for _ in range(head):
        start.append((state >> top) & 1)
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
    if not np.array_equal(bits[period:], bits[:order]):
        raise RuntimeError(f"register failed to close its cycle for taps {taps}")
    return PrbsSequence(order, taps, bits[:period])


def prbs_align(observed, reference: PrbsSequence, min_agreement: float = 0.6) -> int:
    """Recover the cyclic offset of an observed bit stream.

    ``observed`` holds bits 0/1 with -1 marking erasures; it must span at
    least one period.  Returns the offset o maximizing agreement with
    ``reference.bits[(i + o) % period]``, smallest offset on ties.  Raises
    PrbsAlignmentError when the best agreement fraction stays below
    ``min_agreement``, which must lie in [0, 1].

    The stream is folded onto one period as per-phase counts of ones and
    zeros, so ``agreement(o) = zeros.sum() + sum_p (ones[p] - zeros[p]) *
    ref[(p + o) % period]``, one circular cross-correlation.  It runs as an
    FFT over a power-of-two length of at least two periods against two
    tiled reference periods, which never wraps, and is rounded back to the
    exact integer agreements, in O(P log P) for period P.  The reference's
    spectrum is computed once per ``PrbsSequence`` and reused by every
    later alignment against it.
    """
    if not 0.0 <= min_agreement <= 1.0:
        raise ValueError(f"min_agreement must lie in [0, 1], got {min_agreement}")
    raw = np.asarray(observed)
    if raw.ndim != 1:
        raise ValueError("observed must be a 1-d bit stream")
    period = reference.period
    if raw.size < period:
        raise ValueError(f"observed stream shorter than one period ({period})")
    if not np.all((raw == 0) | (raw == 1) | (raw == -1)):
        raise ValueError("observed entries must be 0, 1 or -1 (erasure)")
    # row i of the fold holds bits i*period .. (i+1)*period - 1, padded with erasures
    folded = np.full(-(-raw.size // period) * period, -1, dtype=np.int8)
    folded[: raw.size] = raw
    folded = folded.reshape(-1, period)
    ones = np.count_nonzero(folded == 1, axis=0)
    zeros = np.count_nonzero(folded == 0, axis=0)
    n_valid = int(ones.sum() + zeros.sum())
    if n_valid == 0:
        raise ValueError("observed stream contains only erasures")
    size = reference._correlation_size
    spectrum = np.conj(np.fft.rfft(ones - zeros, size))
    spectrum *= reference._tiled_spectrum
    correlation = np.fft.irfft(spectrum, size)[:period]
    agreements = int(zeros.sum()) + np.rint(correlation).astype(np.int64)
    best = int(np.argmax(agreements))
    fraction = agreements[best] / n_valid
    if fraction < min_agreement:
        raise PrbsAlignmentError(
            f"best agreement {fraction:.3f} below threshold {min_agreement:.3f}"
        )
    return best
