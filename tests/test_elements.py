"""Optical elements: splitters, waveplates, restrictions, loss."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nla_weaksim import elements
from nla_weaksim.elements import (
    LossChannel,
    ModeLayout,
    PPBSSpec,
    ppbs,
    vacuum_restriction,
)
from nla_weaksim.fock import (
    DensityOperator,
    StateVector,
    build_basis,
    lift_mode_transform,
)
from oracles import WaveplateSetting, beamsplitter, hwp, meter_waveplate_angles, qwp


def test_beamsplitter_matrix_convention():
    bs = beamsplitter(1.0 / 3.0, (0, 1))
    t, r = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    assert np.allclose(bs.matrix, [[t, r], [-r, t]])
    assert bs.kind == "unitary"


def test_beamsplitter_rejects_bad_transmission():
    with pytest.raises(ValueError):
        beamsplitter(-0.1, (0, 1))
    with pytest.raises(ValueError):
        beamsplitter(1.1, (0, 1))


def test_ppbs_acts_per_polarization():
    spec = PPBSSpec(t_h=1.0 / 3.0, t_v=1.0)
    tr = ppbs(spec, (0, 1), (2, 3))
    # V block is identity, H block mixes modes 0 and 2
    m = tr.matrix
    h_idx = [tr.modes.index(0), tr.modes.index(2)]
    v_idx = [tr.modes.index(1), tr.modes.index(3)]
    h_block = m[np.ix_(h_idx, h_idx)]
    v_block = m[np.ix_(v_idx, v_idx)]
    assert np.allclose(v_block, np.eye(2))
    assert np.allclose(h_block, beamsplitter(1.0 / 3.0, (0, 1)).matrix)
    assert np.allclose(m[np.ix_(h_idx, v_idx)], 0.0)


def test_hwp_conventions():
    assert np.allclose(hwp(math.pi / 4, (0, 1)).matrix, [[0, 1], [1, 0]])
    assert np.allclose(hwp(0.0, (0, 1)).matrix, [[1, 0], [0, -1]])


def test_qwp_is_unitary_with_unit_determinant_magnitude():
    for angle in np.linspace(0, math.pi, 7):
        m = qwp(angle, (0, 1)).matrix
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(m)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("phi", [0.3, math.pi / 3, math.pi / 2, 2.2, 3.0])
def test_meter_preparation_angles(phi):
    """HWP then QWP on |H> produces (|H> + i e^{i phi}|V>)/sqrt(2)."""
    h_set, q_set = meter_waveplate_angles(phi)
    assert isinstance(h_set, WaveplateSetting) and h_set.kind == "hwp"
    assert q_set.kind == "qwp"
    chain = qwp(q_set.angle, (0, 1)).matrix @ hwp(h_set.angle, (0, 1)).matrix
    got = chain @ np.array([1.0, 0.0])
    want = np.array([1.0, 1.0j * cmath.exp(1.0j * phi)]) / math.sqrt(2.0)
    phase = got[0] / want[0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(got - phase * want)) < 1e-12


def test_vacuum_restriction_drops_rows_and_columns():
    tr = ppbs(PPBSSpec(1.0 / 3.0, 1.0), (0, 1), (4, 5))
    cut = vacuum_restriction(tr, (4, 5))
    assert cut.modes == (0, 1)
    assert cut.kind == "subunitary"
    assert cut.matrix.shape == (2, 2)


def test_vacuum_restriction_equals_vacuum_postselection(rng):
    """Lifting the restricted matrix equals keeping only the terms of the
    full unitary that leave the dropped modes empty."""
    tr = ppbs(PPBSSpec(1.0 / 3.0, 1.0), (0, 1), (2, 3))
    cut = vacuum_restriction(tr, (2, 3))
    basis = build_basis(2, 2, modes=(0, 1))
    lifted = lift_mode_transform(cut, basis)
    for j, occ in enumerate(basis.occupations):
        full = oracles.expand_transform(tr.matrix, occ + (0, 0))
        for i, occ_out in enumerate(basis.occupations):
            assert lifted[i, j] == pytest.approx(
                full.get(occ_out + (0, 0), 0.0), abs=1e-12
            )


def test_loss_channel_kraus_completeness():
    basis = build_basis(1, 3, modes=(0,))
    ch = LossChannel(0.37, 0)
    ks = oracles.loss_kraus(ch.loss, ch.mode, basis)
    total = sum(k.conj().T @ k for k in ks)
    assert np.max(np.abs(total - np.eye(basis.size))) < 1e-12


def test_loss_on_single_photon_frozen_values():
    basis = build_basis(1, 1, modes=(0,))
    one = StateVector(basis, np.array([0.0, 1.0], dtype=complex))
    rho = LossChannel(0.6, 0).apply(one)
    assert np.allclose(np.diag(rho.matrix).real, [0.6, 0.4], atol=1e-14)
    assert rho.matrix[0, 1] == 0.0


def test_loss_matches_ancilla_construction(rng):
    pops = rng.random(4)
    pops /= pops.sum()
    basis = build_basis(1, 3, modes=(0,))
    rho_in = np.diag(pops).astype(complex)
    out = LossChannel(0.23, 0).apply(DensityOperator(basis, rho_in))
    expect = oracles.loss_via_ancilla(list(pops), 0.23, 3)
    assert np.allclose(np.diag(out.matrix).real, expect, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_loss_composition_law(l1, l2):
    """Two cascaded loss channels equal one with combined transmission.

    The reference is the closed form at transmission (1-l1)(1-l2): the
    combined loss 1 - (1-l1)(1-l2) rounds to 1.0 once the transmission drops
    below half an ulp, and the channel's coherences go as sqrt(T), so a
    reference built from that loss is off by ~1e-9 while the cascade is not.
    """
    basis = build_basis(1, 2, modes=(0,))
    amps = np.array([0.5, 0.7, 0.1], dtype=complex)
    state = StateVector(basis, amps)
    twice = LossChannel(l2, 0).apply(LossChannel(l1, 0).apply(state))
    expect = oracles.loss_output(amps, (1.0 - l1) * (1.0 - l2))
    assert np.max(np.abs(twice.matrix - expect)) < 1e-12
    combined = 1.0 - (1.0 - l1) * (1.0 - l2)
    once = LossChannel(combined, 0).apply(state)
    assert np.max(np.abs(once.matrix - oracles.loss_output(amps, 1.0 - combined))) < 1e-12


# (basis modes, lossy mode): one mode, and two modes with either one lossy
LADDERS = [((0,), 0), ((0, 1), 0), ((0, 1), 1)]
LOSSES = [0.0, 1e-300, 0.3, 0.9999999999999999, 1.0]


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("modes, lossy", LADDERS)
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_ladder_loss_matches_independent_routes(cap, modes, lossy, loss):
    """The cached ladder transfer against the Kraus sum on pure and mixed
    inputs (full coherences, H-V ones included), against the closed form
    on one mode, and against the vacuum-ancilla construction on diagonal
    inputs, ladder by ladder of the other mode's occupation."""
    basis = build_basis(len(modes), cap, modes=modes)
    rng = np.random.default_rng(cap)
    vecs = []
    for _ in range(3):
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        vecs.append(v / np.linalg.norm(v))
    weights = [0.5, 0.3, 0.2]
    pure = StateVector(basis, vecs[0])
    mixed = DensityOperator(
        basis, sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    )
    channel = LossChannel(loss, lossy)
    for state in (pure, mixed):
        out = channel.apply(state)
        assert out.basis == basis
        want = oracles.loss_kraus_sum(loss, lossy, state)
        assert np.max(np.abs(out.matrix - want)) < 1e-14
        assert out.trace() == pytest.approx(1.0, abs=1e-14)
    if len(modes) == 1:
        t = 1.0 - loss
        got = channel.apply(pure).matrix
        assert np.max(np.abs(got - oracles.loss_output(vecs[0], t))) < 1e-14
        want = sum(w * oracles.loss_output(v, t) for w, v in zip(weights, vecs))
        assert np.max(np.abs(channel.apply(mixed).matrix - want)) < 1e-14
    pops = rng.random(basis.size)
    out = channel.apply(DensityOperator(basis, np.diag(pops / pops.sum())))
    pos = basis.position(lossy)
    for rest in range(cap + 1 if len(modes) == 2 else 1):
        ladder = []
        for n in range(cap - rest + 1):
            occ = [rest] * len(modes)
            occ[pos] = n
            ladder.append(basis.index_of(tuple(occ)))
        expect = oracles.loss_via_ancilla(
            [pops[i] / pops.sum() for i in ladder], loss, cap - rest
        )
        got = np.diag(out.matrix).real[ladder]
        assert np.max(np.abs(got - expect)) < 1e-14


def test_loss_transfer_is_cached_per_shape_not_per_layout():
    """Layouts with the lossy mode at the same tuple position share one
    cache entry, so drawing new layouts does not grow the cache."""
    elements._loss_transfer.cache_clear()
    for layout in (ModeLayout(), ModeLayout(5, 12, 0, 3)):
        basis = build_basis(2, 3, modes=tuple(sorted(layout.signal)))
        amps = np.zeros(basis.size, dtype=complex)
        amps[0] = amps[-1] = math.sqrt(0.5)
        LossChannel(0.3, layout.signal_v).apply(StateVector(basis, amps))
    info = elements._loss_transfer.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_loss_spec_validation():
    # a loss outside [0, 1] would give NaN coefficients in apply
    for bad in (-0.1, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError, match="outside"):
            LossChannel(bad, 1)
    for edge in (0.0, 1.0):
        assert LossChannel(edge, 1).loss == edge
    with pytest.raises(ValueError):
        PPBSSpec(2.0, 0.5)


def test_hom_dip_at_balanced_splitter():
    bs = beamsplitter(0.5, (0, 1))
    basis = build_basis(2, 2)
    lifted = lift_mode_transform(bs, basis)
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index_of((1, 1))] = 1.0
    out = lifted @ amps
    assert abs(out[basis.index_of((1, 1))]) < 1e-15
    # both photons bunch, half the weight in each doubly occupied port
    assert abs(out[basis.index_of((2, 0))]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out[basis.index_of((0, 2))]) ** 2 == pytest.approx(0.5, abs=1e-12)
