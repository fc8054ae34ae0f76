"""Optical elements: splitters, waveplates, restrictions, loss."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nla_weaksim.fock import build_basis, lift_mode_transform
from nla_weaksim.protocol import SignalSpec, prepare_signal
from oracles import (
    WaveplateSetting,
    beamsplitter,
    hwp,
    meter_waveplate_angles,
    ppbs,
    qwp,
    vacuum_restriction,
)


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
    tr = ppbs(1.0 / 3.0, 1.0, (0, 1), (2, 3))
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
    tr = ppbs(1.0 / 3.0, 1.0, (0, 1), (4, 5))
    cut = vacuum_restriction(tr, (4, 5))
    assert cut.modes == (0, 1)
    assert cut.kind == "subunitary"
    assert cut.matrix.shape == (2, 2)


def test_vacuum_restriction_equals_vacuum_postselection(rng):
    """Lifting the restricted matrix equals keeping only the terms of the
    full unitary that leave the dropped modes empty."""
    tr = ppbs(1.0 / 3.0, 1.0, (0, 1), (2, 3))
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
    # the Kraus set that the lossy-signal reference is built from
    basis = build_basis(1, 3, modes=(0,))
    ks = oracles.loss_kraus(0.37, 0, basis)
    total = sum(k.conj().T @ k for k in ks)
    assert np.max(np.abs(total - np.eye(basis.size))) < 1e-12


def test_loss_on_single_photon_frozen_values():
    # loss 0.6 moves that share of the two-level signal's single photon to
    # the vacuum and scales its coherence with the vacuum by sqrt(0.4)
    alpha = 0.5
    state, _ = prepare_signal(SignalSpec("qubit_truncated", alpha, loss=0.6), 1)
    vac, one = (state.basis.index_of((0, n)) for n in (0, 1))
    n2 = math.exp(-alpha**2)
    rho = oracles.dense(state)
    assert rho[vac, vac].real == pytest.approx(n2 * (1 + 0.6 * alpha**2),
                                               rel=1e-15)
    assert rho[one, one].real == pytest.approx(n2 * 0.4 * alpha**2, rel=1e-15)
    assert rho[vac, one] == pytest.approx(n2 * math.sqrt(0.4) * alpha,
                                          rel=1e-15)
    assert rho[state.basis.index_of((1, 0)), vac] == 0.0


def test_loss_matches_ancilla_construction():
    # a lossy phase-averaged signal is the Poisson ladder thinned by loss,
    # as the vacuum-ancilla construction gives it on a ladder past the cap;
    # its tail beyond cap 3, 1.5e-3, is over the bound, which a prepared
    # signal does not face
    alpha, loss, cap = 0.8, 0.23, 3
    long = cap + 30
    pops = [math.exp(-(alpha**2)) * alpha ** (2 * n) / math.factorial(n)
            for n in range(long + 1)]
    expect = oracles.loss_via_ancilla(pops, loss, long)[:cap + 1]
    state, _ = prepare_signal(SignalSpec("phase_averaged", alpha, loss=loss),
                              cap)
    ladder = [state.basis.index_of((0, n)) for n in range(cap + 1)]
    rho = oracles.dense(state)
    diag = np.diag(rho)
    assert np.max(np.abs(diag[ladder] - expect)) < 1e-15
    assert np.count_nonzero(diag) == cap + 1
    assert np.count_nonzero(rho - np.diag(diag)) == 0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_loss_composition_law(l1, l2):
    """Two cascaded losses equal one with combined transmission.

    A coherent signal already attenuated by l1 and then prepared with loss
    l2 is checked against the closed form at transmission (1-l1)(1-l2) on a
    ladder past the cap.  The combined loss 1 - (1-l1)(1-l2) rounds to 1.0
    once the transmission drops below half an ulp, and the amplitude goes as
    sqrt(T), so a reference built from that loss is off by ~1e-9 while the
    cascade is not; the one-step run is checked against its own loss.
    """
    cap, alpha = 3, 0.5
    amps = oracles.coherent_amps(alpha, cap + 15)
    combined = 1.0 - (1.0 - l1) * (1.0 - l2)
    for spec, t in (
        (SignalSpec("coherent", math.sqrt(1.0 - l1) * alpha, loss=l2),
         (1.0 - l1) * (1.0 - l2)),
        (SignalSpec("coherent", alpha, loss=combined), 1.0 - combined),
    ):
        state, _ = prepare_signal(spec, cap)
        keep = [state.basis.index_of((0, n)) for n in range(cap + 1)]
        got = np.outer(state.amplitudes, state.amplitudes.conj())
        expect = oracles.loss_output(amps, t)[:cap + 1, :cap + 1]
        assert np.max(np.abs(got[np.ix_(keep, keep)] - expect)) < 1e-12


# (basis modes, lossy mode): one mode, and two modes with either one lossy
LADDERS = [((0,), 0), ((0, 1), 0), ((0, 1), 1)]
LOSSES = [0.0, 1e-300, 0.3, 0.9999999999999999, 1.0]


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("modes, lossy", LADDERS)
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_ladder_loss_matches_independent_routes(cap, modes, lossy, loss):
    """The loss reference of the tests, the Kraus sum, against the two
    other routes: the closed form on one mode, on pure and mixed inputs, and
    the vacuum-ancilla construction on diagonal inputs, ladder by ladder of
    the other mode's occupation.  It stays a trace-preserving map on pure
    and mixed inputs with full coherences, H-V ones included."""
    basis = build_basis(len(modes), cap, modes=modes)
    rng = np.random.default_rng(cap)
    vecs = []
    for _ in range(3):
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        vecs.append(v / np.linalg.norm(v))
    weights = [0.5, 0.3, 0.2]
    pure = np.outer(vecs[0], vecs[0].conj())
    mixed = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    outs = [oracles.loss_kraus_sum(loss, lossy, basis, rho)
            for rho in (pure, mixed)]
    for out in outs:
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
        oracles.validate_density(out, atol=1e-14)
    if len(modes) == 1:
        t = 1.0 - loss
        assert np.max(np.abs(outs[0] - oracles.loss_output(vecs[0], t))) < 1e-14
        want = sum(w * oracles.loss_output(v, t) for w, v in zip(weights, vecs))
        assert np.max(np.abs(outs[1] - want)) < 1e-14
    pops = rng.random(basis.size)
    out = oracles.loss_kraus_sum(
        loss, lossy, basis, np.diag(pops / pops.sum()).astype(complex)
    )
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
        got = np.diag(out).real[ladder]
        assert np.max(np.abs(got - expect)) < 1e-14


@pytest.mark.parametrize("num_modes", [1, 2, 3])
@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6])
def test_loss_transfer_matches_the_term_loop(num_modes, cap):
    """The Kraus-sum reference against the binomial transfer written term
    by term, at every position of the basis:
    |..n..><..n'..| -> sum_k sqrt(C(n,k) C(n',k)) t^((n+n')/2-k) l^k
    |..n-k..><..n'-k..|, with l the loss and t = 1 - l."""
    basis = build_basis(num_modes, cap, modes=tuple(range(num_modes)))
    rng = np.random.default_rng(10 * cap + num_modes)
    a = rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2)
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    loss = 0.3
    t = 1.0 - loss
    for pos in range(num_modes):
        want = np.zeros_like(rho)
        for i, occ in enumerate(basis.occupations):
            for j, occ2 in enumerate(basis.occupations):
                n, n2 = occ[pos], occ2[pos]
                for k in range(min(n, n2) + 1):
                    lo = basis.index_of(occ[:pos] + (n - k,) + occ[pos + 1:])
                    lo2 = basis.index_of(occ2[:pos] + (n2 - k,) + occ2[pos + 1:])
                    want[lo, lo2] += (
                        math.sqrt(math.comb(n, k) * math.comb(n2, k))
                        * t ** ((n + n2) / 2 - k) * loss**k * rho[i, j]
                    )
        got = oracles.loss_kraus_sum(loss, pos, basis, rho)
        assert np.max(np.abs(got - want)) < 1e-14


def test_loss_spec_validation():
    # a loss outside [0, 1] has no transmission to attenuate by
    for bad in (-0.1, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError, match="outside"):
            SignalSpec("coherent", 0.1, loss=bad)
    for edge in (0.0, 1.0):
        spec = SignalSpec("coherent", 0.1, loss=edge)
        assert spec.alpha_at_gate == math.sqrt(1.0 - edge) * 0.1
    with pytest.raises(ValueError):
        ppbs(2.0, 0.5, (0, 1), (2, 3))


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
