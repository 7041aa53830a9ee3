import math

import numpy as np
import pytest

from qracsim import (
    DensityMatrix,
    Effect,
    MeasurementPair,
    Message,
    Povm,
    PureState,
    advantage,
    all_messages,
    allocation_figure,
    average_success_probability,
    born_probability,
    classical_bound,
    coarse_grain,
    depolarize,
    empirical_advantage,
    encoding_table,
    max_success_probability,
    measurement_pair_from_mub,
    one_bit_success_probabilities,
    operator_norm,
    optimal_encoding,
    pauli_mub_pair,
    product_mub_pair,
    pvm_pair_compatible,
    quantum_bound,
    reduce_pair,
)
from conftest import random_measurement_pair

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
    as_povm = lambda rows: Povm(
        tuple(Effect(np.outer(r, r.conj())) for r in rows)
    )
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

    def test_all_messages_order(self):
        labels = [m.label for m in all_messages(2)]
        assert labels == ["00", "01", "10", "11"]


class TestOptimalEncoding:
    def test_qubit_message_00(self, qubit_pair):
        state = optimal_encoding(qubit_pair, Message((0, 0), 2))
        assert np.allclose(state.amplitudes, [A1, B1], atol=1e-10)

    def test_ququart_message_00(self, ququart_pair):
        state = optimal_encoding(ququart_pair, Message((0, 0), 4))
        assert np.allclose(state.amplitudes, [A2, B2, B2, B2], atol=1e-10)

    def test_degenerate_sum_uses_tiebreak(self, zz_pair):
        # M_Z(0) + M_Z(1) is the identity, so the top eigenspace is the whole
        # space; the convention returns its unit vector with the most leading zeros
        state = optimal_encoding(zz_pair, Message((0, 1), 2))
        assert np.allclose(state.amplitudes, [0.0, 1.0])

    def test_encoding_table_matches_reference_signs(self, qubit_pair):
        table = encoding_table(qubit_pair)
        expected = {
            (0, 0): [A1, B1],
            (0, 1): [A1, -B1],
            (1, 0): [B1, A1],
            (1, 1): [B1, -A1],
        }
        for digits, amplitudes in expected.items():
            assert np.allclose(table[digits].amplitudes, amplitudes, atol=1e-10)

    def test_encoding_table_ququart_rows(self, ququart_pair):
        table = encoding_table(ququart_pair)
        for q in range(4):
            expected = np.full(4, B2)
            expected[q] = A2
            assert np.allclose(table[(q, 0)].amplitudes, expected, atol=1e-10)

    def test_all_outputs_normalized(self, ququart_pair):
        table = encoding_table(ququart_pair)
        for message in all_messages(4):
            assert np.sum(np.abs(table[message].amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

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
            operator = (
                pair.m1[message.digits[0]].matrix + pair.m2[message.digits[1]].matrix
            )
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

        ket0 = PureState(np.array([1.0, 0.0]))
        table = EncodingMap({m: ket0 for m in all_messages(2)})
        assert average_success_probability(table, zz_pair) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_input_scores_half(self, qubit_pair):
        rho = DensityMatrix(np.eye(2) / 2)
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

        ket0 = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="cover"):
            EncodingMap({Message((0, 0), 2): ket0})

    @pytest.mark.parametrize("kind", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_operator_norm_oracle_equivalence(self, d, kind):
        gen = np.random.default_rng(500 + 10 * d + kind)
        for _ in range(10):
            pair = random_measurement_pair(gen, d, kind)
            direct = max_success_probability(pair)
            explicit = average_success_probability(encoding_table(pair), pair)
            assert abs(direct - explicit) < 1e-9


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
        assert np.allclose(reduced[0].matrix, expected, atol=1e-12)

    def test_second_bit_grouping(self, ququart_pair):
        reduced = coarse_grain(ququart_pair.m1, 1)
        eye = np.eye(4)
        expected = np.outer(eye[0], eye[0]) + np.outer(eye[2], eye[2])
        assert np.allclose(reduced[0].matrix, expected, atol=1e-12)

    def test_preserves_identity_resolution(self, ququart_pair):
        for bit in (0, 1):
            reduced = coarse_grain(ququart_pair.m2, bit)
            total = sum(e.matrix for e in reduced.effects)
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_one_bit_ideal_success(self, ququart_pair):
        probs = one_bit_success_probabilities(ququart_pair)
        assert probs["two_bit"] == pytest.approx(0.75, abs=1e-10)
        assert probs["first_half"] == pytest.approx(5.0 / 6.0, abs=1e-10)
        assert probs["second_half"] == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_requires_four_outcomes(self, qubit_pair):
        with pytest.raises(ValueError, match="four-outcome"):
            coarse_grain(qubit_pair.m1, 0)


class TestReduction:
    def test_product_pair_reduces_to_qubit_pair(self, ququart_pair, qubit_pair):
        for keep in (1, 2):
            reduced = reduce_pair(ququart_pair, (2, 2), keep)
            for k in (1, 2):
                for outcome in range(2):
                    assert np.max(np.abs(
                        reduced.measurement(k)[outcome].matrix
                        - qubit_pair.measurement(k)[outcome].matrix
                    )) < 1e-10

    def test_entangled_pair_reduces_to_trivial(self):
        pair = bell_basis_pair()
        for keep in (1, 2):
            reduced = reduce_pair(pair, (2, 2), keep)
            for k in (1, 2):
                for outcome in range(2):
                    assert np.allclose(
                        reduced.measurement(k)[outcome].matrix, np.eye(2) / 2, atol=1e-10
                    )

    def test_random_product_pvm_pairs_reduce_to_factors(self):
        # any product measurement must reduce to its single-system factors
        from conftest import random_pvm
        from qracsim import tensor

        gen = np.random.default_rng(9090)
        for _ in range(10):
            factors = {1: random_pvm(gen, 2), 2: random_pvm(gen, 2)}
            joint = Povm(
                tuple(
                    Effect(tensor(factors[1][a].matrix, factors[2][b].matrix))
                    for a in range(2)
                    for b in range(2)
                )
            )
            pair = MeasurementPair(joint, joint)
            for keep in (1, 2):
                reduced = reduce_pair(pair, (2, 2), keep)
                for outcome in range(2):
                    assert np.max(np.abs(
                        reduced.m1[outcome].matrix - factors[keep][outcome].matrix
                    )) < 1e-10

    def test_invalid_factorization(self, ququart_pair):
        with pytest.raises(ValueError, match="factor"):
            reduce_pair(ququart_pair, (3, 2), 1)
        with pytest.raises(ValueError, match="keep"):
            reduce_pair(ququart_pair, (2, 2), 0)


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
                Effect(0.5 * np.outer(v, v.conj()) + 0.25 * np.eye(2))
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


class TestDepolarize:
    def test_identity_at_full_visibility(self, rng):
        from conftest import random_density_matrix

        rho = DensityMatrix(random_density_matrix(rng, 3))
        assert np.allclose(depolarize(rho, 1.0).matrix, rho.matrix, atol=1e-12)

    def test_fully_mixed_at_zero(self, rng):
        from conftest import random_density_matrix

        rho = DensityMatrix(random_density_matrix(rng, 4))
        assert np.allclose(depolarize(rho, 0.0).matrix, np.eye(4) / 4, atol=1e-12)

    def test_success_probability_linearity(self, qubit_pair):
        table = encoding_table(qubit_pair)
        v = 0.5
        total = 0.0
        for message in all_messages(2):
            noisy = depolarize(DensityMatrix.from_pure(table[message]), v)
            for k in (1, 2):
                total += born_probability(
                    noisy, qubit_pair.measurement(k)[message.digits[k - 1]]
                )
        blended = total / 8.0
        assert blended == pytest.approx(v * quantum_bound(2) + (1 - v) * 0.5, abs=1e-10)
        assert blended == pytest.approx(0.6767766952966369, abs=1e-10)

    def test_visibility_range(self, rng):
        from conftest import random_density_matrix

        rho = DensityMatrix(random_density_matrix(rng, 2))
        with pytest.raises(ValueError):
            depolarize(rho, 1.5)
