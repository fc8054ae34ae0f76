"""Truncated Fock space: basis layout, permanent lifting, composition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nla_weaksim import fock
from nla_weaksim.fock import (
    BasisSizeError,
    ModeTransform,
    State,
    basis_size,
    build_basis,
    lift_mode_transform,
    occupancy_distribution,
    permanent,
)
from oracles import (
    ModeOverlapError,
    beamsplitter,
    compose_transforms,
    partial_trace,
    tensor,
)


def test_basis_sizes():
    assert basis_size(4, 3) == 35
    assert basis_size(5, 3) == 56
    assert basis_size(1, 0) == 1
    assert basis_size(2, 1) == 3
    b = build_basis(4, 3)
    assert b.size == 35
    assert len(b.occupations) == 35


def test_basis_order_and_lookup():
    b = build_basis(2, 2)
    assert b.occupations == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    for i, occ in enumerate(b.occupations):
        assert b.index_of(occ) == i
    with pytest.raises(KeyError):
        b.index_of((3, 0))


def test_basis_respects_size_limit(monkeypatch):
    monkeypatch.setenv(fock.BASIS_LIMIT_ENV, "10")
    with pytest.raises(BasisSizeError):
        build_basis(4, 3)
    monkeypatch.setenv(fock.BASIS_LIMIT_ENV, "100")
    assert build_basis(4, 3).size == 35
    monkeypatch.delenv(fock.BASIS_LIMIT_ENV)
    with pytest.raises(BasisSizeError):
        build_basis(40, 12)


def test_custom_mode_labels():
    b = build_basis(2, 1, modes=(3, 7))
    assert b.modes == (3, 7)
    assert b.position(7) == 1
    # build_basis normalizes the order, the raw constructor does not
    assert build_basis(2, 1, modes=(7, 3)).modes == (3, 7)
    with pytest.raises(ValueError):
        fock.FockBasis((7, 3), 1)


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_permanent_small_cases(rng):
    assert permanent(np.zeros((0, 0))) == 1.0
    assert permanent(np.array([[3.5 + 1j]])) == 3.5 + 1j
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)


def _permutation_sum(a):
    n = a.shape[0]
    return sum(
        np.prod([a[i, p[i]] for i in range(n)])
        for p in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_permanent_matches_permutation_sum(rng, n):
    a = _random_matrix(rng, n)
    assert permanent(a) == pytest.approx(_permutation_sum(a), rel=1e-12)


@pytest.mark.parametrize("rows, cols", [
    ((0, 0, 1), (0, 1, 1)),
    ((0, 0, 0, 1), (1, 1, 2, 2)),
    ((0, 1, 1, 2, 2), (0, 0, 0, 1, 2)),
    ((2, 2, 2, 2, 0, 1), (0, 1, 1, 1, 2, 2)),
])
def test_permanent_of_repeated_rows_and_columns(rng, rows, cols):
    # the lift takes permanents of U[rows(m), cols(n)], each mode repeated
    # as often as it is occupied
    sub = oracles.haar_unitary(3, rng)[np.ix_(rows, cols)]
    assert permanent(sub) == pytest.approx(_permutation_sum(sub), rel=1e-12)


def test_permanent_with_a_zero_row_is_zero(rng):
    a = _random_matrix(rng, 5)
    a[2] = 0.0
    assert permanent(a) == 0.0


def test_lift_matches_operator_expansion(rng):
    for m in (1, 2, 3):
        for cap in (1, 2, 3):
            u = oracles.haar_unitary(m, rng)
            basis = build_basis(m, cap)
            lifted = lift_mode_transform(
                ModeTransform(u, tuple(range(m))), basis
            )
            for j, occ in enumerate(basis.occupations):
                expect = oracles.expand_transform(u, occ)
                for i, occ_out in enumerate(basis.occupations):
                    assert lifted[i, j] == pytest.approx(
                        expect.get(occ_out, 0.0), abs=1e-12
                    )


def test_lift_is_homomorphism(rng):
    u = oracles.haar_unitary(3, rng)
    v = oracles.haar_unitary(3, rng)
    basis = build_basis(3, 3)
    modes = (0, 1, 2)
    lu = lift_mode_transform(ModeTransform(u, modes), basis)
    lv = lift_mode_transform(ModeTransform(v, modes), basis)
    lvu = lift_mode_transform(ModeTransform(v @ u, modes), basis)
    assert np.max(np.abs(lv @ lu - lvu)) < 1e-10


def test_lift_preserves_photon_number_blocks(rng):
    # even a lossy map never moves amplitude between photon-number sectors
    m = 0.6 * oracles.haar_unitary(3, rng)
    basis = build_basis(3, 2)
    lifted = lift_mode_transform(ModeTransform(m, (0, 1, 2), kind="subunitary"),
                                 basis)
    totals = basis.totals()
    for i in range(basis.size):
        for j in range(basis.size):
            if totals[i] != totals[j]:
                assert lifted[i, j] == 0.0


@pytest.mark.parametrize("num_modes", [3, 4])
@pytest.mark.parametrize("cap", [2, 3, 4])
def test_lifted_block_is_bit_equal_to_the_full_lift_cut(rng, num_modes, cap):
    m = 0.8 * oracles.haar_unitary(num_modes, rng)
    t = ModeTransform(m, tuple(range(num_modes)), kind="subunitary")
    basis = build_basis(num_modes, cap)
    full = lift_mode_transform(t, basis)
    totals = basis.totals()
    # one state of each total, highest first, then a random unsorted draw
    by_total = [totals.index(n) for n in range(cap, -1, -1)]
    drawn = list(rng.choice(basis.size, size=basis.size // 2, replace=False))
    for states in (by_total, drawn):
        assert len({totals[i] for i in states}) > 1
        block = lift_mode_transform(t, basis, states)
        assert not block.flags.writeable
        assert np.array_equal(block, full[np.ix_(states, states)])


def test_coincidence_amplitude_one_third_splitter():
    bs = beamsplitter(1.0 / 3.0, (0, 1))
    basis = build_basis(2, 2)
    lifted = lift_mode_transform(bs, basis)
    i11 = basis.index_of((1, 1))
    assert lifted[i11, i11] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_balanced_splitter_cancels_coincidence():
    bs = beamsplitter(0.5, (0, 1))
    basis = build_basis(2, 2)
    lifted = lift_mode_transform(bs, basis)
    i11 = basis.index_of((1, 1))
    assert abs(lifted[i11, i11]) < 1e-15


def test_mode_transform_validation():
    with pytest.raises(ValueError):
        ModeTransform(np.array([[1.0, 1.0], [0.0, 1.0]]), (0, 1))
    # contractive maps pass as subunitary, expansive ones do not
    ModeTransform(0.5 * np.eye(2), (0, 1), kind="subunitary")
    with pytest.raises(ValueError):
        ModeTransform(1.5 * np.eye(2), (0, 1), kind="subunitary")


def test_compose_transforms_order(rng):
    a = ModeTransform(oracles.haar_unitary(2, rng), (0, 1))
    b = ModeTransform(oracles.haar_unitary(2, rng), (1, 2))
    combined = compose_transforms([a, b])
    full_a = a.embed((0, 1, 2))
    full_b = b.embed((0, 1, 2))
    assert np.allclose(combined.matrix, full_b @ full_a)


def _coherent_vector(alpha, cap, mode):
    basis = build_basis(1, cap, modes=(mode,))
    amps = np.array(oracles.coherent_amps(alpha, cap))
    return State(basis, amps)


def _amp(state, occ):
    return complex(state.amplitudes[state.basis.index_of(occ)])


def _norm2(state):
    return float(np.sum(np.abs(state.amplitudes) ** 2))


def test_tensor_product_pure_states():
    a = _coherent_vector(0.3, 3, 0)
    b = _coherent_vector(0.2, 3, 1)
    joint, dropped = tensor(a, b)
    assert joint.basis.photon_cap == 6
    assert dropped == 0.0
    assert _amp(joint, (1, 2)) == pytest.approx(
        _amp(a, (1,)) * _amp(b, (2,)), rel=1e-12
    )


def test_tensor_truncation_reports_dropped_weight():
    a = _coherent_vector(0.3, 3, 0)
    b = _coherent_vector(0.2, 3, 1)
    full, _ = tensor(a, b)
    cut, dropped = tensor(a, b, photon_cap=3)
    lost = sum(
        abs(_amp(full, occ)) ** 2
        for occ in full.basis.occupations
        if sum(occ) > 3
    )
    assert dropped == pytest.approx(lost, rel=1e-12)
    assert dropped < 1e-4


def test_tensor_rejects_shared_modes():
    a = _coherent_vector(0.3, 2, 0)
    b = _coherent_vector(0.2, 2, 0)
    with pytest.raises(ModeOverlapError):
        tensor(a, b)


def test_tensor_takes_pure_states_only():
    a = _coherent_vector(0.3, 2, 0)
    b = _coherent_vector(0.2, 2, 1)
    def mixed(s):
        return State(s.basis, s.amplitudes, np.abs(s.amplitudes) ** 2)

    for x, y in ((mixed(a), b), (a, mixed(b))):
        with pytest.raises(ValueError, match="pure states"):
            tensor(x, y)


def test_partial_trace_of_product_state():
    a = _coherent_vector(0.3, 2, 0)
    b = _coherent_vector(0.2, 2, 1)
    joint, _ = tensor(a, b)
    rest, reduced = partial_trace(joint, (1,))
    # joint cap is the sum, so embed the factor in the larger ladder
    padded = np.zeros(rest.size, dtype=complex)
    padded[: a.basis.size] = a.amplitudes
    expect = np.outer(padded, padded.conj()) * _norm2(b)
    assert np.max(np.abs(reduced - expect)) < 1e-12
    _, everything = partial_trace(joint, (0, 1))
    assert everything.shape == (1, 1)
    assert everything[0, 0].real == pytest.approx(_norm2(joint), rel=1e-12)


def test_occupancy_probability_and_distribution():
    a = _coherent_vector(0.3, 3, 0)
    dist = occupancy_distribution(a, 0)
    assert dist.sum() == pytest.approx(_norm2(a), rel=1e-12)
    assert dist[1] == pytest.approx(abs(_amp(a, (1,))) ** 2, rel=1e-12)


@pytest.mark.parametrize("num_modes, cap", [(1, 3), (2, 4), (3, 3)])
def test_occupancy_distribution_matches_loop_sum(rng, num_modes, cap):
    """The cached-count marginal adds the same weights |psi|^2 + p in the
    same order as a loop over occupation tuples, so it agrees exactly; the
    weights are the diagonal of the dense density matrix."""
    modes = tuple(range(2, 2 + num_modes))
    basis = build_basis(num_modes, cap, modes=modes)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    w = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    pure = State(basis, v)
    mixed = State(basis, v, np.abs(w) ** 2)
    for state in (pure, mixed):
        weights = np.abs(state.amplitudes) ** 2 + state.populations
        diag = np.diag(oracles.dense(state))
        assert np.max(np.abs(weights - diag) / diag.real) < 1e-14
        for mode in modes:
            pos = basis.position(mode)
            loop = [
                sum(x for occ, x in zip(basis.occupations, weights) if occ[pos] == n)
                for n in range(cap + 1)
            ]
            assert occupancy_distribution(state, mode).tolist() == loop


def test_basis_arrays_are_cached_per_shape():
    """Per-shape count arrays are keyed by shape, not by mode labels."""
    build_basis(2, 4, modes=(0, 1)).counts(1)
    before = fock._basis_arrays.cache_info().currsize
    b = build_basis(2, 4, modes=(7, 11))
    assert b.counts(11).tolist() == [occ[1] for occ in b.occupations]
    assert b.at_cap().tolist() == [sum(occ) == 4 for occ in b.occupations]
    assert fock._basis_arrays.cache_info().currsize == before
    assert not b.counts(7).flags.writeable and not b.at_cap().flags.writeable


def test_density_operator_path():
    a = _coherent_vector(0.2, 2, 0)
    b = _coherent_vector(0.1, 2, 1)
    joint, _ = tensor(a, b, photon_cap=2)
    rho = oracles.dense(joint)
    lifted = lift_mode_transform(beamsplitter(0.5, (0, 1)), joint.basis)
    moved = lifted @ rho @ lifted.conj().T
    assert np.trace(moved).real == pytest.approx(np.trace(rho).real, rel=1e-12)
    oracles.validate_density(rho)
    oracles.validate_density(moved)


def test_state_rejects_bad_populations():
    # p is an incoherent weight per basis state: real, finite, nonnegative
    basis = build_basis(2, 2)
    amps = np.zeros(basis.size)
    for entry in (-1e-300, np.nan, np.inf):
        pops = np.zeros(basis.size)
        pops[1] = entry
        with pytest.raises(ValueError, match="populations"):
            State(basis, amps, pops)
    for size in (basis.size - 1, basis.size + 1):
        with pytest.raises(ValueError, match="populations"):
            State(basis, amps, np.zeros(size))
    with pytest.raises(ValueError, match="amplitudes"):
        State(basis, np.zeros(basis.size - 1))
    state = State(basis, amps)
    assert state.populations.tolist() == [0.0] * basis.size
    assert not state.populations.flags.writeable
    assert not state.amplitudes.flags.writeable


@st.composite
def _unitary_and_cap(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    cap = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    u = oracles.haar_unitary(n, np.random.default_rng(seed))
    return u, cap, seed


@settings(max_examples=40, deadline=None)
@given(_unitary_and_cap())
def test_lifted_unitary_preserves_norm(uc):
    u, cap, seed = uc
    n = u.shape[0]
    basis = build_basis(n, cap)
    lifted = lift_mode_transform(ModeTransform(u, tuple(range(n))), basis)
    rng = np.random.default_rng(seed + 1)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    assert np.linalg.norm(lifted @ amps) == pytest.approx(
        np.linalg.norm(amps), rel=1e-10
    )
