"""Maximal-length binary sequences and cyclic offset recovery.

The transmitter drives its modulators from a pseudo-random binary sequence;
decoding must first recover the cyclic offset between the detected stream
and the reference sequence.

Every register order 3..23 generates and aligns.  Generation writes the
initial register state, then fills the period in numpy blocks of the tap
recurrence with every lag scaled by a power of two, doubling the scale as
the filled prefix grows, so no register loop runs.  Alignment folds the
stream onto one period in one pass, as per-phase erasure counts and column
sums, and finds the best offset by one FFT circular cross-correlation,
O(P log P) for period P, whose agreements are rounded back to exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _integer, _require_type

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


def _checked_order(order) -> int:
    """A register order as an int in 3..23, the orders with default taps."""
    order = _integer(order, "order")
    if order not in DEFAULT_TAPS:
        raise ValueError(f"unsupported register length {order}: choose from 3..23")
    return order


class PrbsAlignmentError(RuntimeError):
    """No cyclic offset reached the required agreement fraction."""


@dataclass(frozen=True, eq=False)
class PrbsSequence:
    """One period of a maximal-length sequence of register ``order``, an
    integer in 3..23 kept as a Python int."""

    order: int
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order", _checked_order(self.order))
        raw = np.asarray(self.bits)
        if raw.shape != (self.period,):
            raise ValueError(f"bits must be a 1-d array of {self.period} bits, got shape {raw.shape}")
        # checked before the cast, where -1 would wrap to 255, 256 to 0 and
        # 0.5 truncate to 0; unsigned and bool input needs one upper bound
        if raw.dtype.kind in "bu":
            valid = raw.max() <= 1
        else:
            valid = np.all((raw == 0) | (raw == 1))
        if not valid:
            raise ValueError("bits must hold only 0 and 1")
        bits = raw.astype(np.uint8)
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
    sequence.  The first ``order`` output bits are the register state, most
    significant bit first, and the rest obey ``b[n] = XOR_t b[n - t]`` over
    the taps.  Over GF(2), p(x)**s = p(x**s) for the feedback polynomial p
    and every power of two s, so ``b[n] = XOR_t b[n - s * t]`` holds as soon
    as n >= s * order.  The period is filled in blocks of s times the
    shortest lag, each one slice copy and ``len(taps) - 1`` in-place XORs of
    earlier bits, doubling s once 2 * s * order bits exist: O(log P) blocks
    for period P, with no register loop.
    """
    order = _checked_order(order)
    taps = DEFAULT_TAPS[order]
    mask = (1 << order) - 1
    state = mask if seed is None else _integer(seed, "seed")
    if not 1 <= state <= mask:
        raise ValueError(
            f"seed must be a nonzero register state in 1..{mask} for order {order}, got {state}"
        )
    period = 2**order - 1
    # one period plus the first register state again, to check the cycle closes
    total = period + order
    bits = np.empty(total, dtype=np.uint8)
    bits[:order] = [(state >> i) & 1 for i in range(order - 1, -1, -1)]
    scale, lo = 1, order
    while lo < total:
        # doubling only once lo >= 2 * s * order keeps lo >= s * order, so
        # the scaled lags never reach back before bit 0
        if lo >= 2 * scale * order:
            scale *= 2
        hi = min(lo + scale * min(taps), total)
        out = bits[lo:hi]
        out[:] = bits[lo - scale * taps[0] : hi - scale * taps[0]]
        for lag in taps[1:]:
            out ^= bits[lo - scale * lag : hi - scale * lag]
        lo = hi
    if not np.array_equal(bits[period:], bits[:order]):
        raise RuntimeError(f"register failed to close its cycle for taps {taps}")
    return PrbsSequence(order, bits[:period])


def prbs_align(observed, reference: PrbsSequence, min_agreement: float = 0.6) -> int:
    """Recover the cyclic offset of an observed bit stream.

    ``observed`` holds bits 0/1 with -1 marking erasures; it must span at
    least one period.  Returns the offset o maximizing agreement with
    ``reference.bits[(i + o) % period]``, smallest offset on ties.  Raises
    PrbsAlignmentError when the best agreement fraction stays below
    ``min_agreement``, which must lie in [0, 1].

    The stream is folded onto one period once: each phase's erasure count
    and the column sum of the -1/0/1 fold give its counts of ones and zeros,
    so ``agreement(o) = zeros.sum() + sum_p (ones[p] - zeros[p]) *
    ref[(p + o) % period]``, one circular cross-correlation.  It runs as an
    FFT over a power-of-two length of at least two periods against two
    tiled reference periods, which never wraps, and is rounded back to the
    exact integer agreements, in O(P log P) for period P.  The reference's
    spectrum is computed once per ``PrbsSequence`` and reused by every
    later alignment against it.
    """
    _require_type(reference, PrbsSequence, "reference")
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
    # per phase: the column sum of the -1/0/1 fold is ones - erasures
    erasures = (folded < 0).sum(axis=0)
    ones = folded.sum(axis=0, dtype=np.int64) + erasures
    valid = folded.shape[0] - erasures
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("observed stream contains only erasures")
    n_zeros = n_valid - int(ones.sum())
    size = reference._correlation_size
    spectrum = np.conj(np.fft.rfft(2 * ones - valid, size))  # ones - zeros
    spectrum *= reference._tiled_spectrum
    correlation = np.fft.irfft(spectrum, size)[:period]
    agreements = n_zeros + np.rint(correlation).astype(np.int64)
    best = int(np.argmax(agreements))
    fraction = agreements[best] / n_valid
    if fraction < min_agreement:
        raise PrbsAlignmentError(
            f"best agreement {fraction:.3f} below threshold {min_agreement:.3f}"
        )
    return best
