import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim import (
    Basis,
    MeasurementPair,
    Message,
    Povm,
    advantage,
    all_messages,
    allocation_figure,
    average_success_probability,
    classical_bound,
    coarse_grain,
    depolarize,
    empirical_advantage,
    encoding_table,
    fourier_mub_pair,
    hermitian_eig,
    max_success_probability,
    measurement_pair_from_mub,
    one_bit_success_probabilities,
    operator_norm,
    partial_trace,
    pauli_mub_pair,
    product_mub_pair,
    pvm_pair_compatible,
    quantum_bound,
    reduce_pair,
)
from qracsim.linalg import _canonical_tops, _psd_norms
from qracsim.tolerances import TOL
from conftest import (
    DensityMatrix,
    born_probability,
    depolarize_state,
    haar_unitary,
    random_density_matrix,
    random_measurement_pair,
    random_povm,
    unit_vector_oracle,
)

SQRT2 = math.sqrt(2.0)
A1 = math.sqrt(2 + SQRT2) / 2
B1 = math.sqrt(2 - SQRT2) / 2
A2 = math.sqrt(3.0) / 2
B2 = 1.0 / (2 * math.sqrt(3.0))


@pytest.fixture(scope="module")
def qubit_pair():
    return measurement_pair_from_mub(pauli_mub_pair())


@pytest.fixture(scope="module")
def ququart_pair():
    return measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2))


@pytest.fixture(scope="module")
def zz_pair():
    z = pauli_mub_pair().first.to_povm()
    return MeasurementPair(z, z)


def bell_basis_pair():
    """Two maximally entangled orthonormal bases as projective measurements."""
    bell = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    ) / SQRT2
    twisted = bell.astype(complex).copy()
    twisted[:, 2:] *= 1j  # extra phase on the second factor keeps entanglement maximal
    as_povm = lambda rows: Povm(tuple(np.outer(r, r.conj()) for r in rows))
    return MeasurementPair(as_povm(bell), as_povm(twisted))


class TestMessage:
    def test_valid(self):
        m = Message((1, 3), 4)
        assert m.digits == (1, 3)
        assert m.label == "13"

    def test_range_checked(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            Message((0, 2), 2)

    def test_two_digits_only(self):
        with pytest.raises(ValueError, match="two digits"):
            Message((0, 1, 0), 2)

    def test_non_integer_digit_rejected(self):
        with pytest.raises(TypeError):
            Message((1.5, 0.9), 2)

    def test_non_integer_alphabet_rejected(self):
        with pytest.raises(TypeError):
            Message((0, 1), 2.5)

    def test_numpy_integer_digits_accepted(self):
        assert Message((np.int64(1), np.uint8(0)), 2).digits == (1, 0)

    def test_all_messages_order(self):
        labels = [m.label for m in all_messages(2)]
        assert labels == ["00", "01", "10", "11"]


class TestMeasurementPair:
    def test_non_povm_measurements_rejected(self):
        with pytest.raises(TypeError, match=r"^m1 and m2 must be Povms, got ndarray, ndarray$"):
            MeasurementPair(np.eye(2), np.eye(2))
        z = pauli_mub_pair().first.to_povm()
        with pytest.raises(TypeError, match=r"^m1 and m2 must be Povms, got Povm, list$"):
            MeasurementPair(z, [np.eye(2)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Message((0.5, 0), 2), "digits must be an integer, got 0.5"),
        (lambda: Message((0, 0), 2.0), "alphabet must be an integer, got 2.0"),
        (lambda: all_messages(2.5), "alphabet must be an integer, got 2.5"),
        (lambda: classical_bound(2.0), "d must be an integer, got 2.0"),
        (lambda: quantum_bound("4"), "d must be an integer, got '4'"),
        (lambda: measurement_pair_from_mub(pauli_mub_pair()).measurement(1.0), "k must be an integer, got 1.0"),
        (lambda: coarse_grain(measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2)).m1, 0.5),
         "bit must be an integer, got 0.5"),
    ],
    ids=["Message-digits", "Message-alphabet", "all_messages", "classical_bound", "quantum_bound", "measurement",
         "coarse_grain"],
)
def test_non_integer_argument_is_named(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: depolarize(pauli_mub_pair().first.to_povm(), "0.5"), "visibility must be a real number, got str"),
        (lambda: empirical_advantage("0.7", 0.75), "p must be a real number, got str"),
        (lambda: empirical_advantage(0.7, "0.75"), "bound must be a real number, got str"),
    ],
    ids=["depolarize-visibility", "empirical_advantage-p", "empirical_advantage-bound"],
)
def test_non_real_argument_is_named(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Message((0, 0), 1), "alphabet must be at least 2"),
        (lambda: MeasurementPair(
            pauli_mub_pair().first.to_povm(), product_mub_pair(pauli_mub_pair(), 2).first.to_povm()
        ), "measurements must act on the same dimension"),
        (lambda: MeasurementPair(*[coarse_grain(product_mub_pair(pauli_mub_pair(), 2).first.to_povm(), 0)] * 2),
         "each measurement needs exactly d outcomes"),
        (lambda: measurement_pair_from_mub(pauli_mub_pair()).measurement(3), "measurement index must be 1 or 2"),
        (lambda: average_success_probability(
            encoding_table(measurement_pair_from_mub(pauli_mub_pair())),
            measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2)),
        ), "encoding and measurements have mismatched alphabets"),
        (lambda: one_bit_success_probabilities(measurement_pair_from_mub(pauli_mub_pair())),
         "defined for the four-dimensional protocol"),
    ],
    ids=["Message-alphabet", "MeasurementPair-dim", "MeasurementPair-outcomes", "measurement",
         "average_success_probability", "one_bit_success_probabilities"],
)
def test_invalid_argument_value_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_real_arguments_of_any_real_type_accepted():
    assert empirical_advantage(np.float32(0.875), Fraction(3, 4)).raw_excess == 0.125
    assert empirical_advantage(1, True).raw_excess == 0
    povm = pauli_mub_pair().first.to_povm()
    assert np.array_equal(depolarize(povm, np.float64(0.5)).matrices, depolarize(povm, 0.5).matrices)
    assert np.array_equal(depolarize(povm, 1).matrices, depolarize(povm, 1.0).matrices)


def qubit_table_and_pair():
    pair = measurement_pair_from_mub(pauli_mub_pair())
    return encoding_table(pair), pair


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: encoding_table(np.eye(2)), "pair must be a MeasurementPair"),
        (lambda: max_success_probability(np.eye(2)), "pair must be a MeasurementPair"),
        (lambda: average_success_probability(qubit_table_and_pair()[0], np.eye(2)), "pair must be a MeasurementPair"),
        (lambda: average_success_probability(np.eye(2), qubit_table_and_pair()[1]), "encoding must be an EncodingMap"),
        (lambda: advantage(np.eye(2)), "pair must be a MeasurementPair"),
        (lambda: reduce_pair(np.eye(4), (2, 2), 1), "pair must be a MeasurementPair"),
        (lambda: one_bit_success_probabilities(np.eye(4)), "pair must be a MeasurementPair"),
        (lambda: pvm_pair_compatible(np.eye(2)), "pair must be a MeasurementPair"),
        (lambda: coarse_grain(np.eye(4), 0), "povm must be a Povm"),
        (lambda: measurement_pair_from_mub(np.eye(2)), "pair must be a MubPair"),
        (lambda: product_mub_pair(np.eye(2), 2), "base must be a MubPair"),
    ],
    ids=[
        "encoding_table", "max_success_probability", "average_success_probability-pair",
        "average_success_probability-encoding", "advantage", "reduce_pair", "one_bit_success_probabilities",
        "pvm_pair_compatible", "coarse_grain", "measurement_pair_from_mub", "product_mub_pair",
    ],
)
def test_wrong_argument_type_is_named(call, message):
    with pytest.raises(TypeError, match=f"^{message}, got ndarray$"):
        call()


class TestOptimalEncoding:
    def test_qubit_message_00(self, qubit_pair):
        state = encoding_table(qubit_pair)[Message((0, 0), 2)]
        assert np.allclose(state, [A1, B1], atol=1e-10)

    def test_ququart_message_00(self, ququart_pair):
        state = encoding_table(ququart_pair)[Message((0, 0), 4)]
        assert np.allclose(state, [A2, B2, B2, B2], atol=1e-10)

    def test_degenerate_sum_uses_tiebreak(self, zz_pair):
        # M_Z(0) + M_Z(1) is the identity, so the top eigenspace is the whole
        # space; the convention returns its unit vector with the most leading zeros
        state = encoding_table(zz_pair)[Message((0, 1), 2)]
        assert np.allclose(state, [0.0, 1.0])

    def test_encoding_table_matches_reference_signs(self, qubit_pair):
        table = encoding_table(qubit_pair)
        expected = {
            (0, 0): [A1, B1],
            (0, 1): [A1, -B1],
            (1, 0): [B1, A1],
            (1, 1): [B1, -A1],
        }
        for digits, amplitudes in expected.items():
            assert np.allclose(table[digits], amplitudes, atol=1e-10)

    def test_encoding_table_ququart_rows(self, ququart_pair):
        table = encoding_table(ququart_pair)
        for q in range(4):
            expected = np.full(4, B2)
            expected[q] = A2
            assert np.allclose(table[(q, 0)], expected, atol=1e-10)

    def test_all_outputs_normalized(self, ququart_pair):
        table = encoding_table(ququart_pair)
        for message in all_messages(4):
            assert np.sum(np.abs(table[message]) ** 2) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _bloch_grid():
        # 1-degree grid over the pure-state sphere
        theta = np.deg2rad(np.arange(0.0, 180.5, 1.0))
        phi = np.deg2rad(np.arange(0.0, 360.0, 1.0))
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        return np.stack(
            [np.cos(tt / 2).ravel(), np.exp(1j * pp.ravel()) * np.sin(tt / 2).ravel()],
            axis=1,
        )

    def _assert_grid_agrees(self, pair):
        states = self._bloch_grid()
        for message in all_messages(2):
            operator = pair.m1[message.digits[0]] + pair.m2[message.digits[1]]
            values = np.einsum("ni,ij,nj->n", states.conj(), operator, states).real
            grid_best = float(values.max())
            exact = operator_norm(operator)
            assert grid_best <= exact + 1e-3
            assert grid_best >= exact - 1e-3

    def test_bloch_grid_never_beats_optimum(self, qubit_pair):
        self._assert_grid_agrees(qubit_pair)

    def test_bloch_grid_on_random_qubit_pair(self):
        gen = np.random.default_rng(1212)
        self._assert_grid_agrees(random_measurement_pair(gen, 2, 1))


class TestSuccessProbabilities:
    def test_optimal_qubit_table_hits_quantum_bound(self, qubit_pair):
        table = encoding_table(qubit_pair)
        p = average_success_probability(table, qubit_pair)
        assert p == pytest.approx(quantum_bound(2), abs=1e-10)

    def test_constant_encoding_hand_evaluation(self, zz_pair):
        # sending |0> always: correct digit iff it is 0, so the 4-message
        # average is (2 + 1 + 1 + 0) / 8 = 0.5
        from qracsim import EncodingMap

        table = EncodingMap(np.broadcast_to([1.0, 0.0], (2, 2, 2)))
        assert average_success_probability(table, zz_pair) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_input_scores_half(self, qubit_pair):
        rho = np.eye(2) / 2
        for message in all_messages(2):
            total = sum(
                born_probability(rho, qubit_pair.measurement(k)[message.digits[k - 1]])
                for k in (1, 2)
            )
            assert total / 2 == pytest.approx(0.5, abs=1e-12)

    def test_max_success_qubit(self, qubit_pair):
        assert max_success_probability(qubit_pair) == pytest.approx(
            quantum_bound(2), abs=1e-10
        )

    def test_max_success_identical_measurements(self, zz_pair):
        # exhaustive oracle: ||M(x1) + M(x2)|| is 2 when x1 = x2, else 1
        expected = (2 + 1 + 1 + 2) / 8.0
        assert max_success_probability(zz_pair) == pytest.approx(expected, abs=1e-10)

    def test_max_success_ququart(self, ququart_pair):
        assert max_success_probability(ququart_pair) == pytest.approx(0.75, abs=1e-10)

    def test_incomplete_table_rejected(self):
        from qracsim import EncodingMap

        for shape in ((1, 1, 2), (2, 1, 2), (2, 2)):
            message = f"encoding table must cover all d^2 messages: amplitudes of shape {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                EncodingMap(np.broadcast_to([1.0, 0.0][: shape[-1]], shape))

    def test_table_with_a_foreign_alphabet_key_rejected(self):
        from qracsim import EncodingMap

        # a third value of x1 on an alphabet-2 table: rows (3, 2), not (d, d)
        with pytest.raises(ValueError, match="cover"):
            EncodingMap(np.broadcast_to([1.0, 0.0], (3, 2, 2)))

    def test_lookup_with_a_foreign_alphabet_message_rejected(self, qubit_pair):
        table = encoding_table(qubit_pair)
        with pytest.raises(ValueError, match=r"^message alphabet 3 is not the encoding's 2$"):
            table[Message((0, 0), 3)]
        with pytest.raises(ValueError, match="outside alphabet of size 2"):
            table[(0, 2)]
        assert np.array_equal(table[(1, 0)], table[Message((1, 0), 2)])

    def test_table_is_one_checked_read_only_stack(self):
        from qracsim import EncodingMap

        # rows are checked normalised and kept as given: no phase is fixed
        given = np.broadcast_to([0.0, 1.0j], (2, 2, 2)).copy()
        table = EncodingMap(given)
        given[0, 0] = [1.0, 0.0]
        assert table.amplitudes.shape == (2, 2, 2) and table.alphabet == 2
        assert np.array_equal(table[(0, 0)], [0.0, 1.0j])
        with pytest.raises(ValueError, match="read-only"):
            table.amplitudes[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match=r"^state is not normalized"):
            EncodingMap(2 * given)

    @pytest.mark.parametrize("kind", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_operator_norm_oracle_equivalence(self, d, kind):
        gen = np.random.default_rng(500 + 10 * d + kind)
        for _ in range(10):
            pair = random_measurement_pair(gen, d, kind)
            direct = max_success_probability(pair)
            explicit = average_success_probability(encoding_table(pair), pair)
            assert abs(direct - explicit) < 1e-9


def per_message_encoding(total):
    """The per-message engine's optimal encoding, an oracle kept apart from
    ``linalg``: one ``eigh``, the top cluster found by a walk down the
    ascending eigenvalues, then one SVD per component while it is
    degenerate, and the one-vector normalise-and-phase-fix body."""
    w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
    start = w.size - 1
    while start > 0 and w[start] - w[start - 1] < TOL.cluster_gap:
        start -= 1
    # Fortran order: the SVD rule's products round differently in C order
    basis = np.asfortranarray(v)[:, start:]
    for i in range(basis.shape[0]):
        if basis.shape[1] == 1:
            break
        if np.linalg.norm(basis[i]) > TOL.phase_pivot:
            basis = basis @ np.linalg.svd(basis[i : i + 1])[2][1:].conj().T
    return unit_vector_oracle(basis[:, 0]), w.size - start


def solved_alone(total):
    """The top state of one effect sum solved by itself, through
    ``hermitian_eig`` and ``linalg._canonical_tops``."""
    w, v = hermitian_eig(total)
    return _canonical_tops(w[None], v[None])[0]


def effect_sum(pair, message):
    x1, x2 = message.digits
    return pair.m1[x1] + pair.m2[x2]


def stacked_engine_pairs():
    cases = [
        pytest.param(lambda d=d, kind=kind: random_measurement_pair(
            np.random.default_rng(8128 + 10 * d + kind), d, kind), id=f"{name}-d{d}")
        for d in (2, 3, 4, 5, 8, 16)
        for kind, name in enumerate(("projective", "smeared", "povm"))
    ]
    cases += [
        pytest.param(lambda d=d: measurement_pair_from_mub(fourier_mub_pair(d)), id=f"fourier-d{d}")
        for d in (2, 3, 4, 5, 8, 16)
    ]
    cases += [
        pytest.param(lambda n=n: measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), n)),
                     id=f"pauli-d{2**n}")
        for n in (1, 2, 3, 4)
    ]
    return cases


def eigh_path(pair):
    """The same pair rebuilt from plain effect stacks, which carry no basis
    rows, so ``spectra`` solves it by capped ``eigh`` stacks."""
    return MeasurementPair(Povm(pair.m1.matrices), Povm(pair.m2.matrices))


def degenerate_pair(d):
    """M1 = M2: every x1 != x2 sum is a rank-2 projector, a two-fold top."""
    first = measurement_pair_from_mub(fourier_mub_pair(d)).m2
    return MeasurementPair(first, first)


def perturbed_pair(first_offsets, second_offsets, position):
    """Computational-basis pair whose effects carry offsets of order 1e-10 on
    one entry, each inside the effect tolerances and summing to zero, so the
    POVMs stay valid while some effect sums leave a tolerance."""

    def povm(offsets):
        effects = []
        for k, offset in enumerate(offsets):
            matrix = np.zeros((len(offsets), len(offsets)), dtype=complex)
            matrix[k, k] = 1.0
            matrix[position] += offset * 1e-10
            effects.append(matrix)
        return Povm(tuple(effects))

    return MeasurementPair(povm(first_offsets), povm(second_offsets))


def first_error(function, pair):
    """Message of the first per-message failure, in message order."""
    for message in all_messages(pair.dim):
        try:
            function(effect_sum(pair, message))
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no effect sum fails")


class TestStackedEngine:
    @pytest.mark.parametrize("build", stacked_engine_pairs())
    def test_matches_per_message_oracle(self, build):
        pair = eigh_path(build())
        table = encoding_table(pair)
        norms = 0.0
        born = 0.0
        for message in all_messages(pair.dim):
            total = effect_sum(pair, message)
            expected, _ = per_message_encoding(total)
            assert np.array_equal(table[message], expected)
            assert np.array_equal(table[message], solved_alone(total))
            norms += operator_norm(total)
            for k in (1, 2):
                born += born_probability(table[message], pair.measurement(k)[message.digits[k - 1]])
        d2 = 2.0 * pair.dim**2
        assert abs(max_success_probability(pair) - norms / d2) <= 1e-14
        assert abs(average_success_probability(table, pair) - born / d2) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_degenerate_tops_take_the_svd_rule(self, d):
        pair = eigh_path(degenerate_pair(d))
        table = encoding_table(pair)
        for message in all_messages(d):
            expected, multiplicity = per_message_encoding(effect_sum(pair, message))
            x1, x2 = message.digits
            assert multiplicity == (1 if x1 == x2 else 2)
            assert np.array_equal(table[message], expected)
            assert np.array_equal(solved_alone(effect_sum(pair, message)), expected)

    def test_zz_pair_takes_the_svd_rule(self, zz_pair):
        pair = eigh_path(zz_pair)
        table = encoding_table(pair)
        for message in all_messages(2):
            expected, multiplicity = per_message_encoding(effect_sum(pair, message))
            assert multiplicity == (1 if message.digits[0] == message.digits[1] else 2)
            assert np.array_equal(table[message], expected)

    def test_non_hermitian_sum_names_first_failing_message(self):
        # row x1 = 0 has sums 1.1e-10, 1.4e-10 and 0.2e-10 off Hermitian: the
        # first failure, not the largest, is named
        pair = perturbed_pair((0.9, -0.9, 0.0), (0.2, 0.5, -0.7), (0, 1))
        message = first_error(hermitian_eig, pair)
        assert message == "matrix is not Hermitian: max |H - H^dag| = 1.100e-10 exceeds 1.0e-10"
        for call in (encoding_table, max_success_probability, advantage):
            with pytest.raises(ValueError) as caught:
                call(pair)
            assert str(caught.value) == message
        assert first_error(operator_norm, pair) == message

    @pytest.mark.parametrize("d", [5, 16])
    def test_non_hermitian_sum_in_a_larger_pair_names_first_failing_message(self, d):
        # row x1 = 0 is Hermitian; sums (1, 0) and (2, 1) are 1.1e-10 and 1.3e-10
        # off it.  At d = 16 they lie in the second of the 16 eigh stacks
        first = (0.0, 0.6, -0.6) + (0.0,) * (d - 3)
        second = (0.5, -0.7, 0.2) + (0.0,) * (d - 3)
        pair = perturbed_pair(first, second, (0, 1))
        message = first_error(hermitian_eig, pair)
        assert message == "matrix is not Hermitian: max |H - H^dag| = 1.100e-10 exceeds 1.0e-10"
        for call in (encoding_table, max_success_probability, advantage):
            with pytest.raises(ValueError) as caught:
                call(pair)
            assert str(caught.value) == message

    def test_non_psd_sum_names_first_failing_message(self):
        # row x1 = 0 has sums with eigenvalues -1.05e-10 and -1.7e-10 on the
        # last diagonal entry: the first failure, not the largest, is named
        pair = perturbed_pair((-0.9, 0.0, 0.9), (-0.15, -0.8, 0.95), (2, 2))
        message = first_error(operator_norm, pair)
        assert message == "matrix is not positive semidefinite: min eigenvalue -1.050e-10"
        for call in (max_success_probability, advantage):
            with pytest.raises(ValueError) as caught:
                call(pair)
            assert str(caught.value) == message


NON_PSD_MESSAGE = "matrix is not positive semidefinite: min eigenvalue -1.050e-10"


def non_psd_pair():
    """Hermitian effect sums, one row of them not positive semidefinite."""
    return perturbed_pair((-0.9, 0.0, 0.9), (-0.15, -0.8, 0.95), (2, 2))


class TestSharedSpectra:
    """Each pair's effect sums are solved once, whichever reader comes first."""

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_one_eigh_per_first_digit(self, d, monkeypatch):
        pair = random_measurement_pair(np.random.default_rng(1800 + d), d, 2)
        eigh_calls, eigvalsh_calls = [], []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: eigh_calls.append(m.shape) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh_calls.append(m.shape) or eigvalsh(m))
        encoding_table(pair)
        max_success_probability(pair)
        advantage(pair)
        if d == 4:
            one_bit_success_probabilities(pair)
        # up to d = 8 all d^2 sums are one stack; d = 16 takes one stack per first digit
        assert eigh_calls == ([(d * d, d, d)] if d <= 8 else [(d, d, d)] * d)
        # only the coarse-grained Povm that the one-bit figures build checks its spectrum
        assert eigvalsh_calls == ([(2, 4, 4)] if d == 4 else [])

    @pytest.mark.parametrize("build", [c for c in stacked_engine_pairs() if c.id.endswith(("-d3", "-d16"))])
    def test_reader_order_does_not_matter(self, build):
        first, second = build(), build()
        p_first = max_success_probability(first)
        table_first = encoding_table(first)
        table_second = encoding_table(second)
        p_second = max_success_probability(second)
        assert p_first == p_second
        for message in all_messages(first.dim):
            assert np.array_equal(table_first[message], table_second[message])
        assert np.array_equal(first.spectra[0], second.spectra[0])

    def test_spectra_are_cached_and_read_only(self, ququart_pair):
        eigenvalues, tops = ququart_pair.spectra
        assert ququart_pair.spectra is ququart_pair.spectra
        assert eigenvalues.shape == (4, 4, 4) and tops.shape == (4, 4, 4)
        assert np.all(np.diff(eigenvalues, axis=-1) >= 0.0)
        for stack in (eigenvalues, tops):
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 2.0
        table = encoding_table(ququart_pair)
        for message in all_messages(4):
            assert np.array_equal(table[message], tops[message.digits])

    @pytest.mark.parametrize("table_first", [True, False])
    def test_non_psd_sums_still_encode(self, table_first):
        pair = non_psd_pair()
        if table_first:
            assert encoding_table(pair).alphabet == 3
        for call in (max_success_probability, advantage):
            with pytest.raises(ValueError) as caught:
                call(pair)
            assert str(caught.value) == NON_PSD_MESSAGE
        assert encoding_table(pair).alphabet == 3


def looped_spectra(pair):
    """The effect sums solved one first digit at a time, by one checked (d, d, d)
    ``hermitian_eig`` each: the loop that ``spectra`` replaced, kept as its oracle."""
    second = pair.m2.matrices
    eigenvalues, tops = [], []
    for first in pair.m1.matrices:
        w, v = hermitian_eig(first + second)
        eigenvalues.append(w)
        tops.append(_canonical_tops(w, v))
    return np.stack(eigenvalues), np.stack(tops)


def assert_spectra_match_loop(pair):
    for stack, expected in zip(pair.spectra, looped_spectra(pair)):
        assert np.array_equal(stack, expected)


class TestCappedSpectra:
    """Without basis rows, ``spectra`` solves its sums in as few checked eigh
    stacks of at most 4096 entries as it can, and LAPACK gives each sum the
    bits it gives it alone."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(2, 8), kind=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_random_pairs_match_the_loop(self, d, kind, seed):
        assert_spectra_match_loop(random_measurement_pair(np.random.default_rng(seed), d, kind))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_fourier_pairs_match_the_loop(self, d):
        assert_spectra_match_loop(eigh_path(measurement_pair_from_mub(fourier_mub_pair(d))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_pairs_and_their_reductions_match_the_loop(self, n):
        pair = eigh_path(measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), n)))
        assert_spectra_match_loop(pair)
        if n > 1:
            dims = (2 ** (n // 2), 2 ** (n - n // 2))
            for keep in (1, 2):
                assert_spectra_match_loop(reduce_pair(pair, dims, keep))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_stacks_stay_under_the_cap(self, d, monkeypatch):
        pair = eigh_path(measurement_pair_from_mub(fourier_mub_pair(d)))
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
        pair.spectra
        assert all(math.prod(shape) <= 4096 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == d * d
        assert len(shapes) == math.ceil(d * d / (4096 // (d * d)))
        if d <= 8:
            assert shapes == [(d * d, d, d)]
        if d == 16:
            assert shapes == [(16, 16, 16)] * 16


def basis_pair(rng, d, kind):
    """Two Haar bases as measurements that carry their rows: independent
    (kind 0), the same basis twice (1), or the second a re-phased permutation
    of the first (2).  Kinds 1 and 2 are compatible, and every sum of two
    orthogonal rows has a two-fold top."""
    first = haar_unitary(rng, d)
    if kind == 0:
        second = haar_unitary(rng, d)
    elif kind == 1:
        second = first
    else:
        second = first[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
    return MeasurementPair(Basis(first.T).to_povm(), Basis(second.T).to_povm())


def mub_pairs():
    cases = [
        pytest.param(lambda d=d: measurement_pair_from_mub(fourier_mub_pair(d)), id=f"fourier-d{d}")
        for d in range(2, 17)
    ]
    cases += [
        pytest.param(lambda n=n: measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), n)),
                     id=f"pauli-d{2**n}")
        for n in (1, 2, 3, 4)
    ]
    return cases


class TestOverlapSpectra:
    """Pairs of measurements that carry basis rows are solved from their
    overlaps; the eigh path on the same effects is their oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(2, 16), kind=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_random_pairs_match_the_eigh_path(self, d, kind, seed):
        pair = basis_pair(np.random.default_rng(seed), d, kind)
        eigenvalues, tops = pair.spectra
        expected_eigenvalues, expected_tops = eigh_path(pair).spectra
        assert np.max(np.abs(eigenvalues - expected_eigenvalues)) <= 1e-13
        # a top state moves by about the rounding over the top gap 2|c|; a
        # degenerate top is narrowed to one vector by the same rule on both paths
        size = np.abs(pair.m1.rows.conj() @ pair.m2.rows.T)
        gap = np.max(np.abs(tops - expected_tops), axis=-1)
        tied = 2.0 * size < TOL.cluster_gap
        assert np.all(gap[tied] <= 1e-12)
        assert np.all(gap[~tied] * np.minimum(1.0, 2.0 * size[~tied]) <= 1e-13)
        if kind:
            assert np.count_nonzero(tied) == d * (d - 1)

    @pytest.mark.parametrize("build", mub_pairs())
    def test_mub_pairs_meet_the_closed_forms(self, build):
        pair = build()
        d = pair.dim
        assert pair.m1.rows is not None and pair.m2.rows is not None
        assert np.max(np.abs(pair.spectra[0][..., -1] - (1.0 + 1.0 / math.sqrt(d)))) <= 1e-14
        assert abs(advantage(pair).value - (math.sqrt(d) - 1.0) / d) <= 1e-14

    @pytest.mark.parametrize("d", [2, 7, 16])
    def test_no_eigh_call(self, d, monkeypatch):
        pairs = [measurement_pair_from_mub(fourier_mub_pair(d)), basis_pair(np.random.default_rng(d), d, 1)]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        for pair in pairs:
            encoding_table(pair)
            advantage(pair)
        assert calls == []
        eigh_path(pairs[0]).spectra
        assert calls  # the counter sees the eigh path

    def test_foreign_rows_fail_the_reconstruction_check(self):
        pair = measurement_pair_from_mub(fourier_mub_pair(4))
        object.__setattr__(pair.m2, "rows", product_mub_pair(pauli_mub_pair(), 2).second.vectors)
        for call in (lambda: pair.spectra, lambda: encoding_table(pair), lambda: advantage(pair)):
            with pytest.raises(RuntimeError, match="^eigendecomposition failed the reconstruction check$"):
                call()
        assert "spectra" not in vars(pair)  # a failure caches nothing

    def test_derived_measurements_carry_no_rows(self, ququart_pair):
        povm = ququart_pair.m2
        assert povm.rows is not None
        reduced = reduce_pair(ququart_pair, (2, 2), 1)
        derived = [Povm(povm.matrices), depolarize(povm, 1.0), coarse_grain(povm, 0), reduced.m1, reduced.m2]
        assert all(m.rows is None for m in derived)


# Per-effect loops, kept as exact oracles for the stack operations of
# reduce_pair, pvm_pair_compatible and one_bit_success_probabilities.
def looped_reduce_povm(povm, dims, keep):
    d1, d2 = dims
    kept_dim, other_dim = (d1, d2) if keep == 1 else (d2, d1)
    effects = []
    for a in range(kept_dim):
        total = np.zeros((povm.dim, povm.dim), dtype=complex)
        for b in range(other_dim):
            outcome = a * d2 + b if keep == 1 else b * d2 + a
            total = total + povm[outcome]
        effects.append(partial_trace(total, dims, keep) / other_dim)
    return effects


def looped_compatible(pair):
    for povm in (pair.m1, pair.m2):
        for e in povm.matrices:
            if not np.linalg.norm(e @ e - e) < TOL.projective:
                raise ValueError("compatibility test requires projective measurements")
    for e1 in pair.m1.matrices:
        for e2 in pair.m2.matrices:
            commutator = e1 @ e2 - e2 @ e1
            if np.linalg.norm(commutator) >= TOL.commutator:
                return False
    return True


def looped_one_bit(pair):
    table = encoding_table(pair)
    first_bit = [pair.m1[0] + pair.m1[1], pair.m1[2] + pair.m1[3]]
    exact = low = high = 0.0
    for q in range(4):
        state = table[(q, 0)]
        exact += born_probability(state, pair.m1[q]) / 4.0
        if q < 2:
            low += born_probability(state, first_bit[0]) / 2.0
        else:
            high += born_probability(state, first_bit[1]) / 2.0
    return {"two_bit": exact, "first_half": low, "second_half": high}


def stack_oracle_pairs():
    cases = [
        pytest.param(lambda n=n: measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), n)),
                     id=f"pauli-d{2**n}")
        for n in (1, 2, 3, 4)
    ]
    cases += [
        pytest.param(lambda d=d: measurement_pair_from_mub(fourier_mub_pair(d)), id=f"fourier-d{d}")
        for d in (2, 3, 4, 6, 8)
    ]
    cases += [
        pytest.param(lambda d=d, kind=kind: random_measurement_pair(
            np.random.default_rng(4096 + 10 * d + kind), d, kind), id=f"{name}-d{d}")
        for d in (2, 4, 6, 8)
        for kind, name in enumerate(("projective", "smeared"))
    ]
    cases.append(pytest.param(bell_basis_pair, id="bell-twisted"))
    return cases


def factorizations(d):
    return [((d1, d // d1), keep) for d1 in range(1, d + 1) if d % d1 == 0 for keep in (1, 2)
            if (d1, d // d1)[keep - 1] >= 2]


class TestStackOracles:
    @pytest.mark.parametrize("build", stack_oracle_pairs())
    def test_reduce_pair_matches_loop(self, build):
        pair = build()
        for dims, keep in factorizations(pair.dim):
            reduced = reduce_pair(pair, dims, keep)
            for k in (1, 2):
                expected = looped_reduce_povm(pair.measurement(k), dims, keep)
                assert len(reduced.measurement(k).matrices) == len(expected)
                for effect, matrix in zip(reduced.measurement(k).matrices, expected):
                    assert np.array_equal(effect, matrix), (dims, keep, k)

    @pytest.mark.parametrize("build", stack_oracle_pairs())
    def test_compatibility_matches_loop(self, build):
        pair = build()
        # the pair itself, and M1 against itself, which always commutes
        for candidate in (pair, MeasurementPair(pair.m1, pair.m1)):
            try:
                expected = looped_compatible(candidate)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    pvm_pair_compatible(candidate)
            else:
                assert pvm_pair_compatible(candidate) is expected

    @pytest.mark.parametrize("build", [c for c in stack_oracle_pairs() if c.id.endswith(("-d4", "bell-twisted"))])
    def test_one_bit_matches_loop(self, build):
        pair = build()
        assert pair.dim == 4
        assert one_bit_success_probabilities(pair) == looped_one_bit(pair)

    @pytest.mark.parametrize("build", stack_oracle_pairs())
    def test_povm_stack_is_read_only_and_stacks_its_effects(self, build):
        pair = build()
        for povm in (pair.m1, pair.m2):
            assert povm.matrices.shape == (povm.outcomes, povm.dim, povm.dim)
            for k in range(povm.outcomes):
                assert np.array_equal(povm[k], povm.matrices[k]) and np.shares_memory(povm[k], povm.matrices)
                with pytest.raises(ValueError, match="read-only"):
                    povm[k][0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                povm.matrices[0, 0, 0] = 2.0


def looped_max_success_probability(pair):
    """``max_success_probability`` summing one Python float per row of norms,
    as it did before one ``sum(axis=-1)``: its bitwise oracle."""
    d = pair.dim
    return sum(float(row.sum()) for row in _psd_norms(pair.spectra[0])) / (2.0 * d * d)


def success_oracle_pairs():
    cases = [
        pytest.param(lambda d=d: measurement_pair_from_mub(fourier_mub_pair(d)), id=f"fourier-d{d}")
        for d in range(2, 17)
    ]
    cases += [
        pytest.param(lambda n=n: measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), n)),
                     id=f"pauli-d{2**n}")
        for n in (1, 2, 3, 4)
    ]
    cases += [
        pytest.param(lambda d=d, kind=kind, seed=seed: random_measurement_pair(
            np.random.default_rng(8192 + 100 * seed + 10 * d + kind), d, kind), id=f"{name}-d{d}-{seed}")
        for d in (2, 3, 4, 6, 8)
        for kind, name in enumerate(("projective", "smeared", "povm"))
        for seed in range(3)
    ]
    return cases


@pytest.mark.parametrize("build", success_oracle_pairs())
def test_max_success_probability_matches_row_sums(build):
    pair = build()
    assert max_success_probability(pair).hex() == looped_max_success_probability(pair).hex()


class TestBounds:
    def test_values(self):
        assert classical_bound(2) == pytest.approx(0.75, abs=1e-12)
        assert classical_bound(4) == pytest.approx(0.625, abs=1e-12)
        assert quantum_bound(2) == pytest.approx(0.5 * (1 + 1 / SQRT2), abs=1e-15)
        assert quantum_bound(4) == pytest.approx(0.75, abs=1e-12)

    def test_asymptote(self):
        assert classical_bound(10**9) == pytest.approx(0.5, abs=1e-8)

    def test_quantum_beats_classical(self):
        for d in range(2, 17):
            assert quantum_bound(d) > classical_bound(d)

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError):
            classical_bound(1)
        with pytest.raises(ValueError):
            quantum_bound(1)
        for bound in (classical_bound, quantum_bound):
            with pytest.raises(TypeError, match=r"^d must be an integer, got 2\.5$"):
                bound(2.5)


class TestAdvantage:
    def test_qubit_mub_saturation(self, qubit_pair):
        value = advantage(qubit_pair).value
        assert value == pytest.approx((SQRT2 - 1) / 2, abs=1e-10)

    def test_ququart_mub_saturation(self, ququart_pair):
        assert advantage(ququart_pair).value == pytest.approx(0.25, abs=1e-10)

    def test_compatible_pair_scores_zero(self, zz_pair):
        result = advantage(zz_pair)
        assert result.value == 0.0
        assert result.raw_excess == pytest.approx(0.0, abs=1e-10)

    def test_floor_on_random_pairs(self):
        gen = np.random.default_rng(77)
        for kind in (0, 1, 2):
            pair = random_measurement_pair(gen, 3, kind)
            assert advantage(pair).value >= 0.0

    def test_empirical_values(self):
        assert empirical_advantage(0.791, 0.75).value == pytest.approx(0.041, abs=1e-12)
        assert empirical_advantage(0.751, 0.625).value == pytest.approx(0.126, abs=1e-12)
        floored = empirical_advantage(0.70, 0.75)
        assert floored.value == 0.0
        assert floored.raw_excess == pytest.approx(-0.05, abs=1e-12)

    def test_empirical_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            empirical_advantage(1.2, 0.75)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_empirical_rejects_non_finite_probability(self, p):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            empirical_advantage(p, 0.75)


class TestCoarseGrain:
    def test_first_bit_grouping(self, ququart_pair):
        reduced = coarse_grain(ququart_pair.m1, 0)
        eye = np.eye(4)
        expected = np.outer(eye[0], eye[0]) + np.outer(eye[1], eye[1])
        assert np.allclose(reduced[0], expected, atol=1e-12)

    def test_second_bit_grouping(self, ququart_pair):
        reduced = coarse_grain(ququart_pair.m1, 1)
        eye = np.eye(4)
        expected = np.outer(eye[0], eye[0]) + np.outer(eye[2], eye[2])
        assert np.allclose(reduced[0], expected, atol=1e-12)

    def test_preserves_identity_resolution(self, ququart_pair):
        for bit in (0, 1):
            reduced = coarse_grain(ququart_pair.m2, bit)
            total = sum(reduced.matrices)
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_one_bit_ideal_success(self, ququart_pair):
        probs = one_bit_success_probabilities(ququart_pair)
        assert probs["two_bit"] == pytest.approx(0.75, abs=1e-10)
        assert probs["first_half"] == pytest.approx(5.0 / 6.0, abs=1e-10)
        assert probs["second_half"] == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_requires_four_outcomes(self, qubit_pair):
        with pytest.raises(ValueError, match="four-outcome"):
            coarse_grain(qubit_pair.m1, 0)

    def test_bit_must_be_an_integer(self, ququart_pair):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            coarse_grain(ququart_pair.m1, 2)
        for bit in (1.0, 0.5):
            with pytest.raises(TypeError, match=f"^bit must be an integer, got {re.escape(repr(bit))}$"):
                coarse_grain(ququart_pair.m1, bit)


class TestReduction:
    def test_product_pair_reduces_to_qubit_pair(self, ququart_pair, qubit_pair):
        for keep in (1, 2):
            reduced = reduce_pair(ququart_pair, (2, 2), keep)
            for k in (1, 2):
                for outcome in range(2):
                    assert np.max(np.abs(
                        reduced.measurement(k)[outcome]
                        - qubit_pair.measurement(k)[outcome]
                    )) < 1e-10

    def test_entangled_pair_reduces_to_trivial(self):
        pair = bell_basis_pair()
        for keep in (1, 2):
            reduced = reduce_pair(pair, (2, 2), keep)
            for k in (1, 2):
                for outcome in range(2):
                    assert np.allclose(
                        reduced.measurement(k)[outcome], np.eye(2) / 2, atol=1e-10
                    )

    def test_random_product_pvm_pairs_reduce_to_factors(self):
        # any product measurement must reduce to its single-system factors
        from conftest import random_pvm

        gen = np.random.default_rng(9090)
        for _ in range(10):
            factors = {1: random_pvm(gen, 2), 2: random_pvm(gen, 2)}
            joint = Povm(tuple(np.kron(factors[1][a], factors[2][b]) for a in range(2) for b in range(2)))
            pair = MeasurementPair(joint, joint)
            for keep in (1, 2):
                reduced = reduce_pair(pair, (2, 2), keep)
                for outcome in range(2):
                    assert np.max(np.abs(
                        reduced.m1[outcome] - factors[keep][outcome]
                    )) < 1e-10

    def test_invalid_factorization(self, ququart_pair):
        with pytest.raises(ValueError, match="factor"):
            reduce_pair(ququart_pair, (3, 2), 1)
        with pytest.raises(ValueError, match="keep"):
            reduce_pair(ququart_pair, (2, 2), 0)
        with pytest.raises(TypeError, match=r"^dims \(2\.0, 2\.0\) must be two integers and keep 1 an"):
            reduce_pair(ququart_pair, (2.0, 2.0), 1)
        with pytest.raises(TypeError, match=r"^dims \(2, 2\) must be two integers and keep 1\.0 an"):
            reduce_pair(ququart_pair, (2, 2), 1.0)
        with pytest.raises(TypeError, match=r"^dims \(2, 2, 1\) must be two integers"):
            reduce_pair(ququart_pair, (2, 2, 1), 1)

    @pytest.mark.parametrize(
        "dims, keep",
        [((1, 4), 1), ((4, 1), 2), ((-2, -2), 1), ((-2, -2), 2), ((0, 4), 2), ((2, 3), 1)],
    )
    def test_bad_dims_named_up_front(self, ququart_pair, dims, keep):
        with pytest.raises(ValueError, match=re.escape(f"dims {dims} with keep {keep} must factor")):
            reduce_pair(ququart_pair, dims, keep)

    def test_trivial_discarded_factor_keeps_the_pair(self, ququart_pair):
        reduced = reduce_pair(ququart_pair, (4, 1), 1)
        for k in (1, 2):
            assert np.array_equal(reduced.measurement(k).matrices, ququart_pair.measurement(k).matrices)


class TestCompatibility:
    def test_identical_projective_pair(self, zz_pair):
        assert pvm_pair_compatible(zz_pair) is True

    def test_unbiased_pair_incompatible(self, qubit_pair):
        assert pvm_pair_compatible(qubit_pair) is False

    def test_product_pair_incompatible(self, ququart_pair):
        assert pvm_pair_compatible(ququart_pair) is False

    def test_rejects_non_projective(self):
        noisy = Povm(
            tuple(
                0.5 * np.outer(v, v.conj()) + 0.25 * np.eye(2)
                for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            )
        )
        with pytest.raises(ValueError, match="projective"):
            pvm_pair_compatible(MeasurementPair(noisy, noisy))


class TestAllocation:
    def test_reference_measurement_values(self):
        # direct evaluation of the log sum on the measured advantages
        result = allocation_figure(0.126, 0.041, 0.079)
        expected = math.log(0.126) + math.log(0.041) + math.log(0.079)
        assert result.phi == pytest.approx(expected, abs=1e-12)
        assert result.phi == pytest.approx(-7.80, abs=0.01)

    def test_ideal_product_values(self, ququart_pair, qubit_pair):
        global_adv = advantage(ququart_pair)
        local = advantage(qubit_pair)
        result = allocation_figure(global_adv, local, local)
        expected = math.log(0.25) + 2 * math.log((SQRT2 - 1) / 2)
        assert result.phi == pytest.approx(expected, abs=1e-9)

    def test_undefined_on_zero_advantage(self):
        result = allocation_figure(0.1, 0.0, 0.1)
        assert result.phi is None
        assert result.terms == (0.1, 0.0, 0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            allocation_figure(0.1, -0.1, 0.1)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_rejected(self, position):
        terms = [0.1, 0.1, 0.1]
        terms[position] = math.nan
        with pytest.raises(ValueError, match="nonnegative"):
            allocation_figure(*terms)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_infinite_rejected(self, position):
        terms = [0.1, 0.1, 0.1]
        terms[position] = math.inf
        with pytest.raises(ValueError, match=r"^advantage terms must be nonnegative and finite, got \("):
            allocation_figure(*terms)


class TestDepolarize:
    """Depolarizing noise as a map on measurements, checked against the
    state-side channel it is the adjoint of."""

    def test_identity_at_full_visibility(self, rng):
        povm = random_povm(rng, 3)
        assert np.allclose(depolarize(povm, 1.0).matrices, povm.matrices, atol=1e-12)

    def test_fully_mixed_at_zero(self, rng):
        povm = random_povm(rng, 4)
        noisy = depolarize(povm, 0.0)
        for effect, original in zip(noisy.matrices, povm.matrices, strict=True):
            assert np.allclose(effect, np.trace(original) * np.eye(4) / 4, atol=1e-12)

    def test_success_probability_linearity(self, qubit_pair):
        table = encoding_table(qubit_pair)
        v = 0.5
        blended = average_success_probability(table, noisy_pair(qubit_pair, v))
        assert blended == pytest.approx(v * quantum_bound(2) + (1 - v) * 0.5, abs=1e-10)
        assert blended == pytest.approx(0.6767766952966369, abs=1e-10)
        # the same figure with the noise on every state instead
        total = 0.0
        for message in all_messages(2):
            noisy = depolarize_state(DensityMatrix(np.outer(table[message], table[message].conj())), v)
            for k in (1, 2):
                total += born_probability(noisy.matrix, qubit_pair.measurement(k)[message.digits[k - 1]])
        assert blended == pytest.approx(total / 8.0, abs=1e-12)

    def test_visibility_range(self, qubit_pair):
        with pytest.raises(ValueError):
            depolarize(qubit_pair.m1, 1.5)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(d=st.integers(2, 8), v=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_noisy_effects_give_noisy_state_statistics(self, d, v, seed):
        # tr(D_v(M) rho) = tr(M D_v(rho)): the channel is self-adjoint
        gen = np.random.default_rng(seed)
        povm = random_povm(gen, d)
        rho = DensityMatrix(random_density_matrix(gen, d))
        mapped = depolarize(povm, v)
        noisy_rho = depolarize_state(rho, v)
        for effect, original in zip(mapped.matrices, povm.matrices, strict=True):
            assert abs(born_probability(rho.matrix, effect) - born_probability(noisy_rho.matrix, original)) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.75, 1.0])
    def test_per_factor_noise_is_a_kron_of_qubit_maps(self, rng, dims, v):
        # one-qubit D_v by its Kraus operators sqrt(1 - 3(1-v)/4) I and
        # sqrt((1-v)/4) X, Y, Z; the n-qubit map takes their Kronecker products
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
        weights = [1 - 3 * (1 - v) / 4] + [(1 - v) / 4] * 3
        kraus = [(math.sqrt(w), p) for w, p in zip(weights, paulis, strict=True)]
        d = 2 ** len(dims)
        povm = random_povm(rng, d)
        mapped = depolarize(povm, v, dims)
        for effect, original in zip(mapped.matrices, povm.matrices, strict=True):
            expected = np.zeros((d, d), dtype=complex)
            for terms in itertools.product(kraus, repeat=len(dims)):
                k = functools.reduce(np.kron, [w * p for w, p in terms])
                expected += k @ original @ k.conj().T
            assert np.max(np.abs(effect - expected)) < 1e-12

    def test_one_factor_is_global_noise(self, rng):
        povm = random_povm(rng, 4)
        assert np.array_equal(depolarize(povm, 0.6, (4,)).matrices, depolarize(povm, 0.6).matrices)

    @pytest.mark.parametrize("dims", [None, (2, 2)])
    def test_valid_povm_at_both_ends(self, ququart_pair, dims):
        # v = 1 leaves every effect as it was; v = 0 leaves only its trace
        povm = ququart_pair.m2
        for v in (0.0, 1.0):
            mapped = depolarize(povm, v, dims)
            assert isinstance(mapped, Povm) and mapped.outcomes == 4 and mapped.dim == 4
        assert np.array_equal(depolarize(povm, 1.0, dims).matrices, povm.matrices)
        mixed = np.broadcast_to(np.eye(4) / 4, (4, 4, 4))
        assert np.allclose(depolarize(povm, 0.0, dims).matrices, mixed, atol=1e-15)

    @pytest.mark.parametrize(
        "dims, error",
        [((2, 3), ValueError), ((), ValueError), ((-2, -2), ValueError), ((0, 4), ValueError),
         (4, TypeError), ((2.0, 2.0), TypeError), ("22", TypeError)],
        ids=["wrong-product", "empty", "negative", "zero", "scalar", "floats", "string"],
    )
    def test_bad_dims_named(self, ququart_pair, dims, error):
        with pytest.raises(error, match="^dims "):
            depolarize(ququart_pair.m1, 0.5, dims)

    def test_rejects_non_povm(self):
        with pytest.raises(TypeError, match="^povm must be a Povm, got ndarray$"):
            depolarize(np.stack([np.eye(2), np.zeros((2, 2))]), 0.5)

    @pytest.mark.parametrize("d", range(2, 17))
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(v=st.floats(0.0, 1.0))
    def test_global_noise_on_fourier_pairs_is_linear(self, d, v):
        # fixed noiseless encodings and re-optimised ones both give v P_q + (1 - v) / d
        pair, table = fourier_pair_and_table(d)
        noisy = noisy_pair(pair, v)
        expected = v * quantum_bound(d) + (1 - v) / d
        assert abs(average_success_probability(table, noisy) - expected) < 1e-12
        assert abs(max_success_probability(noisy) - expected) < 1e-12

    @pytest.mark.parametrize("v", [0.0, 0.25, 0.5, 0.7, 0.8, 0.9, 1.0])
    def test_per_qubit_noise_on_two_qubits(self, ququart_pair, v):
        # fixed noiseless encodings of the Pauli x 2 pair score less than under
        # global noise, 1/4 + v/2
        noisy = noisy_pair(ququart_pair, v, (2, 2))
        fixed = average_success_probability(encoding_table(ququart_pair), noisy)
        assert abs(fixed - (0.25 + v / 3 + v**2 / 6)) < 1e-12

    def test_per_qubit_threshold(self, ququart_pair):
        table = encoding_table(ququart_pair)

        def excess(v):
            return average_success_probability(table, noisy_pair(ququart_pair, v, (2, 2))) - classical_bound(4)

        root = scipy.optimize.brentq(excess, 0.5, 1.0, xtol=1e-15)
        assert abs(root - (math.sqrt(13) / 2 - 1)) < 1e-12

    @pytest.mark.parametrize(
        "v, reoptimised, fixed", [(0.7, 0.566204, 0.565), (0.8, 0.623939, 0.623333), (0.9, 0.685168, 0.685)]
    )
    def test_reoptimised_encodings_beat_fixed_ones_under_per_qubit_noise(self, ququart_pair, v, reoptimised, fixed):
        noisy = noisy_pair(ququart_pair, v, (2, 2))
        best = max_success_probability(noisy)
        noiseless = average_success_probability(encoding_table(ququart_pair), noisy)
        assert best == pytest.approx(reoptimised, abs=5e-7)
        assert noiseless == pytest.approx(fixed, abs=5e-7)
        assert best > noiseless + 1e-4


def noisy_pair(pair: MeasurementPair, v: float, dims=None) -> MeasurementPair:
    return MeasurementPair(depolarize(pair.m1, v, dims), depolarize(pair.m2, v, dims))


@functools.lru_cache(maxsize=None)
def fourier_pair_and_table(d: int):
    pair = measurement_pair_from_mub(fourier_mub_pair(d))
    return pair, encoding_table(pair)
