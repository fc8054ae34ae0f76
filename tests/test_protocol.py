"""Heralded amplification: gains, herald probabilities, state preparation."""

import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from nla_weaksim import fock, protocol
from nla_weaksim.elements import DEFAULT_LAYOUT, ModeLayout
from nla_weaksim.fock import DensityOperator, StateVector, TruncationError, build_basis
from nla_weaksim.protocol import (
    InfiniteGainError,
    MeterSetting,
    SignalSpec,
    analytic,
    apply_herald,
    gate_operator,
    herald_operators,
    phase_averaged_state,
    phi_for_gain,
    ppbs_cz_circuit,
    prepare_signal,
    run_nla,
    truncated_coherent,
    two_mode_coherent,
)

PHI_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3]


def test_truncated_coherent_amplitudes_and_tail():
    state, tail = truncated_coherent(0.1, 3, mode=0, truncation_bound=1e-3)
    expect = oracles.coherent_amps(0.1, 3)
    assert np.allclose(state.amplitudes, expect, atol=1e-15)
    assert tail == pytest.approx(4.133472e-10, rel=1e-5)
    assert tail == pytest.approx(oracles.poisson_tail(0.01, 3), rel=1e-9)
    _, tail3 = truncated_coherent(0.3, 3, mode=0, truncation_bound=1e-3)
    assert tail3 == pytest.approx(2.544115e-06, rel=1e-5)


@pytest.mark.parametrize("mean", [1e-4, 5e-4, 1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("cap", [2, 3, 4])
def test_poisson_tail_is_summed_not_cancelled(mean, cap):
    """A tail far below 1e-16 keeps its digits: one minus the head sum
    would cancel to 0 or to rounding noise."""
    alpha = math.sqrt(mean)
    want = oracles.poisson_tail(abs(alpha) ** 2, cap)
    _, tail = truncated_coherent(alpha, cap, mode=0)
    _, tail_mixed = phase_averaged_state(alpha, cap)
    assert tail == pytest.approx(want, rel=1e-12, abs=0.0)
    assert tail_mixed == pytest.approx(want, rel=1e-12, abs=0.0)


def test_poisson_tail_of_a_large_mean():
    # most of the weight is beyond the cap, where one minus the head is exact
    _, tail = phase_averaged_state(3.0, 2)
    assert tail == pytest.approx(oracles.poisson_tail(9.0, 2), rel=1e-12, abs=0.0)


def test_truncated_coherent_rejects_large_tail():
    with pytest.raises(TruncationError):
        truncated_coherent(1.5, 3, mode=0, truncation_bound=1e-3)


def test_meter_state_and_projector_overlap():
    # the signal vacuum crosses the ideal gate untouched, so it heralds with
    # |<analysis|meter>|^2 = |(1 - e^{i phi})/2|^2
    vacuum = SignalSpec("qubit_truncated", 0.0)
    for phi in PHI_GRID:
        out = run_nla(vacuum, MeterSetting(phi), "ideal")
        assert out.herald_probability == pytest.approx(
            abs((1 - cmath.exp(1j * phi)) / 2) ** 2, abs=1e-14
        )


def test_analytic_gain_is_imaginary_cotangent():
    for phi in PHI_GRID:
        pred = analytic(phi, 0.01)
        want = 1j / math.tan(phi / 2)
        assert pred.g == pytest.approx(want, abs=1e-13)
        assert pred.g2 == pytest.approx(1 / math.tan(phi / 2) ** 2, rel=1e-13)
        assert pred.g2_nondet == pytest.approx(pred.g2 / 3, rel=1e-15)


def test_analytic_rejects_zero_phase():
    with pytest.raises(InfiniteGainError):
        analytic(0.0, 0.01)
    with pytest.raises(InfiniteGainError):
        analytic(2 * math.pi, 0.01)


def test_phi_for_gain_round_trip():
    for g2 in (0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 36.0):
        phi = phi_for_gain(g2)
        assert analytic(phi, 0.0).g2 == pytest.approx(g2, rel=1e-12)
    assert phi_for_gain(0.0) == math.pi
    with pytest.raises(ValueError):
        phi_for_gain(-1.0)


def test_ppbs_circuit_matches_reference_matrix():
    circuit = ppbs_cz_circuit()
    combined = fock.compose_transforms(circuit)
    assert combined.kind == "subunitary"
    assert np.max(np.abs(combined.matrix - oracles.ppbs_circuit_matrix())) < 1e-14


def test_ideal_cz_flips_exactly_one_component():
    basis = build_basis(4, 2)
    op = oracles.ideal_cz(basis)
    diag = np.diag(op)
    sv = basis.position(DEFAULT_LAYOUT.signal_v)
    mh = basis.position(DEFAULT_LAYOUT.meter_h)
    mv = basis.position(DEFAULT_LAYOUT.meter_v)
    for occ, d in zip(basis.occupations, diag):
        flip = occ[sv] == 1 and occ[mh] == 0 and occ[mv] == 1
        assert d == (-1.0 if flip else 1.0)


@pytest.mark.parametrize("gate", ["ppbs", "ideal"])
def test_amplitude_gain_follows_cotangent(gate):
    scale = math.sqrt(3.0) if gate == "ppbs" else 1.0
    for phi in PHI_GRID:
        out = run_nla(SignalSpec("coherent", 0.01), MeterSetting(phi), gate)
        want = 1j / math.tan(phi / 2) / scale
        assert out.amplitude_gain == pytest.approx(want, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["ppbs", "ideal"]),
    st.floats(min_value=0.2, max_value=math.pi),
    st.floats(min_value=0.0, max_value=1e-3),
)
def test_herald_probability_closed_form_two_level_input(gate, phi, a2):
    alpha = math.sqrt(a2)
    out = run_nla(SignalSpec("qubit_truncated", alpha), MeterSetting(phi), gate)
    assert out.herald_probability == pytest.approx(
        analytic(phi, alpha, gate).p_success, rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["ppbs", "ideal"]),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=math.pi, exclude_min=True),
    st.booleans(),
    st.data(),
)
def test_herald_probability_never_exceeds_input_trace(gate, cap, phi, mixed,
                                                      data):
    # M(phi) and K_HH are blocks of the lifted gate, a contraction, between
    # unit meter states, so no herald keeps more than the input weight
    basis, k_hh, _ = herald_operators(gate, cap, DEFAULT_LAYOUT)
    rank = data.draw(st.integers(1, basis.size)) if mixed else 1
    parts = [
        data.draw(arrays(float, (basis.size, rank),
                         elements=st.floats(-1.0, 1.0)))
        for _ in range(2)
    ]
    g = parts[0] + 1j * parts[1]
    if data.draw(st.booleans()):
        # below the cap the ideal gate's K_HH keeps all of the weight
        g[np.array(basis.totals()) == cap] = 0.0
    if mixed:
        state = DensityOperator(basis, g @ g.conj().T)
        weight = state.trace()
    else:
        state = StateVector(basis, g[:, 0])
        weight = state.norm() ** 2
    # run_nla applies M(phi) to a prebuilt state on the herald basis
    for prob in (run_nla(state, phi, gate, photon_cap=cap).herald_probability,
                 apply_herald(k_hh, state)[1]):
        assert prob <= weight * (1.0 + 1e-12)


def test_herald_probability_coherent_input_close_to_closed_form():
    # multiphoton components shift the herald at order |alpha|^4
    for phi in PHI_GRID:
        for a2 in (1e-6, 1e-4, 1e-3):
            alpha = math.sqrt(a2)
            out = run_nla(SignalSpec("coherent", alpha), MeterSetting(phi))
            pred = analytic(phi, alpha)
            assert out.herald_probability == pytest.approx(
                pred.p_success, rel=1e-5
            )


def test_ideal_gate_herald_closed_form():
    alpha = 0.01
    for phi in PHI_GRID:
        want = math.exp(-(alpha**2)) * math.sin(phi / 2) ** 2 \
            * (1 + alpha**2 / math.tan(phi / 2) ** 2)
        out = run_nla(SignalSpec("qubit_truncated", alpha), MeterSetting(phi),
                      "ideal")
        assert out.herald_probability == pytest.approx(want, rel=1e-12)
        assert analytic(phi, alpha, "ideal").p_success == pytest.approx(
            want, rel=1e-12
        )
    with pytest.raises(ValueError):
        analytic(1.1, alpha, "cz")


def test_full_deamplification_at_pi():
    alpha = 0.02
    out = run_nla(SignalSpec("qubit_truncated", alpha), MeterSetting(math.pi))
    assert out.p1_out < 1e-25
    n2 = math.exp(-(alpha**2))
    assert out.herald_probability == pytest.approx(n2 / 3, rel=1e-12)


def test_run_matches_brute_force_reference():
    rng = np.random.default_rng(77)
    for cap in (2, 3, 4, 5):
        for gate in ("ppbs", "ideal"):
            for phi in (0.4, 1.1, 2.0):
                alpha = (rng.normal() + 1j * rng.normal()) * 0.02
                sig = oracles.coherent_amps(alpha, cap)
                ref_cond, ref_prob = oracles.run_reference(sig, phi, gate, cap)
                out = run_nla(SignalSpec("coherent", alpha), MeterSetting(phi),
                              gate, photon_cap=cap)
                assert out.herald_probability == pytest.approx(ref_prob,
                                                               rel=1e-10)
                # weight at and beyond the cap has no room for the meter
                assert out.truncation_weight == pytest.approx(
                    oracles.poisson_tail(abs(alpha) ** 2, cap - 1), rel=1e-9
                )
                cond = out.conditional_state
                norm = math.sqrt(
                    sum(abs(a) ** 2 for a in ref_cond.values())
                )
                for occ, amp in ref_cond.items():
                    got = cond.amplitude(occ)
                    assert got == pytest.approx(amp / norm, abs=1e-10)


def test_diagonal_input_matches_weighted_reference():
    # a diagonal input heralds as the mixture of its Fock components
    alpha, phi = 0.3, 1.1
    for cap in (2, 3):
        pops = [math.exp(-(alpha**2)) * alpha ** (2 * n) / math.factorial(n)
                for n in range(cap + 1)]
        for loss in (0.0, 0.4):
            weights = oracles.loss_via_ancilla(pops, loss, cap)
            for gate in ("ppbs", "ideal"):
                out = run_nla(SignalSpec("phase_averaged", alpha, loss=loss),
                              MeterSetting(phi), gate, photon_cap=cap)
                basis = out.conditional_state.basis
                want = np.zeros((basis.size, basis.size), dtype=complex)
                prob = 0.0
                for n, w in enumerate(weights):
                    cond, p = oracles.run_reference([0] * n + [1], phi, gate,
                                                    cap)
                    vec = np.zeros(basis.size, dtype=complex)
                    for occ, amp in cond.items():
                        vec[basis.index_of(occ)] = amp
                    want += w * np.outer(vec, vec.conj())
                    prob += w * p
                assert out.herald_probability == pytest.approx(prob, rel=1e-10)
                got = out.conditional_state.matrix * out.herald_probability
                assert np.max(np.abs(got - want)) < 1e-12
                assert out.truncation_weight == pytest.approx(
                    weights[cap] + oracles.poisson_tail(alpha**2, cap),
                    rel=1e-9,
                )


def test_prepared_signal_is_shared_and_bounded():
    spec = SignalSpec("coherent", 0.03, loss=0.2)
    state, _ = prepare_signal(spec, 4)
    assert prepare_signal(spec, 4)[0] is state
    assert not state.matrix.flags.writeable
    for i in range(20):
        prepare_signal(SignalSpec("phase_averaged", 0.01 * (i + 1)), 3)
    info = protocol._prepare_signal.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_prepared_signal_does_not_mix_float_and_complex_amplitudes():
    # the specs compare equal, yet complex powers round differently
    a = 0.0307
    direct = {t: two_mode_coherent(0.0, t(a), 4)[0].amplitudes
              for t in (float, complex)}
    assert not np.array_equal(direct[float], direct[complex])
    assert SignalSpec("coherent", a) == SignalSpec("coherent", complex(a))
    for t in (complex, float):
        got = prepare_signal(SignalSpec("coherent", t(a)), 4)[0]
        assert np.array_equal(got.amplitudes, direct[t])


def test_gate_operator_is_cached():
    a = gate_operator("ppbs", 3)
    b = gate_operator("ppbs", 3)
    assert a is b
    assert not a.flags.writeable


@pytest.mark.parametrize("gate", ["ideal", "cz"])
def test_gate_operator_lifts_only_the_postselected_gate(gate):
    with pytest.raises(ValueError, match=repr(gate)):
        gate_operator(gate, 3)


def _joint_gate(gate, cap, layout=DEFAULT_LAYOUT):
    """The gate on the joint basis: the production lift of the postselected
    gate, the oracle's diagonal matrix for the ideal one."""
    if gate == "ppbs":
        return gate_operator(gate, cap, layout=layout)
    joint = build_basis(4, cap, modes=tuple(sorted(layout.modes())))
    return oracles.ideal_cz(joint, layout=layout)


def test_herald_operators_cut_the_lifted_gate():
    basis, k_hh, k_vv = herald_operators("ideal", 3, DEFAULT_LAYOUT)
    again = herald_operators("ideal", 3, DEFAULT_LAYOUT)
    assert again[1] is k_hh and again[2] is k_vv
    for k in (k_hh, k_vv):
        assert k.shape == (basis.size,)
        assert not k.flags.writeable
    assert basis == build_basis(2, 3, modes=tuple(sorted(DEFAULT_LAYOUT.signal)))
    at_cap = [i for i, n in enumerate(basis.totals()) if n == 3]
    assert not np.any(k_hh[at_cap]) and not np.any(k_vv[at_cap])
    # the ideal gate keeps the meter photon and its polarization, so the
    # analysis outcome of either meter input keeps the norm of any signal
    # below the cap
    rng = np.random.default_rng(5)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps[at_cap] = 0.0
    for k in (k_hh, k_vv):
        kept = np.linalg.norm(k * amps) ** 2
        assert kept == pytest.approx(np.linalg.norm(amps) ** 2, rel=1e-12)


@pytest.mark.parametrize("cap, gate", [
    (cap, gate) for cap in range(2, 8) for gate in ("ideal", "ppbs")
] + [(20, "ideal"), (44, "ideal")])
def test_herald_diagonals_match_closed_form(gate, cap):
    basis, k_hh, k_vv = herald_operators(gate, cap, DEFAULT_LAYOUT)
    assert basis.modes == DEFAULT_LAYOUT.signal
    want_hh, want_vv = oracles.herald_diagonals(gate, cap)
    assert np.max(np.abs(k_hh - want_hh)) < 1e-12
    assert np.max(np.abs(k_vv - want_vv)) < 1e-12


@pytest.mark.parametrize("gate", ["ppbs", "ideal"])
@pytest.mark.parametrize("cap", [2, 3, 4])
def test_herald_diagonals_are_the_lifted_gate_meter_blocks(gate, cap):
    # cut all four meter blocks <one meter photon in a| U |one in b> out of
    # the lifted gate: the H-V blocks vanish and the others are diagonal
    lay = DEFAULT_LAYOUT
    basis, k_hh, k_vv = herald_operators(gate, cap, lay)
    joint = build_basis(4, cap)
    u = _joint_gate(gate, cap)
    inside = [i for i, n in enumerate(basis.totals()) if n < cap]

    def column(i, meter_mode):
        occ = [0, 0, 0, 0]
        occ[lay.signal_h], occ[lay.signal_v] = basis.occupations[i]
        occ[meter_mode] = 1
        return joint.index_of(tuple(occ))

    diagonals = {lay.meter_h: k_hh, lay.meter_v: k_vv}
    for a in lay.meter:
        for b in lay.meter:
            block = u[np.ix_([column(i, a) for i in inside],
                             [column(i, b) for i in inside])]
            want = np.diag(diagonals[a][inside]) if a == b else 0.0
            assert np.max(np.abs(block - want)) < 1e-12


def _meter_cut(basis, joint, meter_mode, inside):
    """Joint-basis indices of one meter photon in ``meter_mode`` next to each
    signal occupation in ``inside``."""
    cut = []
    for i in inside:
        occ = [0] * joint.num_modes
        for mode, n in zip(basis.modes, basis.occupations[i]):
            occ[joint.position(mode)] = n
        occ[joint.position(meter_mode)] = 1
        cut.append(joint.index_of(tuple(occ)))
    return cut


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, ModeLayout(5, 2, 11, 0),
                                    ModeLayout(3, 9, 1, 14)],
                         ids=["default", "spread", "interleaved"])
@pytest.mark.parametrize("gate", ["ppbs", "ideal"])
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_herald_diagonals_are_bit_equal_to_the_full_gate_cut(gate, cap,
                                                             layout):
    # the herald lifts only its block (or, for the ideal gate, writes it in
    # closed form); the same entries of the full gate hold the same bits
    basis, k_hh, k_vv = herald_operators(gate, cap, layout)
    joint = build_basis(4, cap, modes=tuple(sorted(layout.modes())))
    u = _joint_gate(gate, cap, layout)
    inside = np.flatnonzero(np.array(basis.totals()) < cap)
    for meter_mode, k in zip(layout.meter, (k_hh, k_vv)):
        cut = _meter_cut(basis, joint, meter_mode, inside)
        want = np.zeros(basis.size, dtype=complex)
        want[inside] = u[cut, cut]
        assert np.array_equal(k, want)


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_cold_herald_lifts_only_its_block(cap, monkeypatch):
    # one permanent per same-total pair among the 2 (n + 1) one-meter-photon
    # states of each signal total n below the cap, and no full gate
    calls = []
    permanent = fock.permanent

    def counted(a):
        calls.append(a.shape)
        return permanent(a)

    monkeypatch.setattr(fock, "permanent", counted)
    monkeypatch.setattr(protocol, "_gate_operator", functools.lru_cache(
        maxsize=None)(protocol._gate_operator.__wrapped__))
    herald_operators.__wrapped__("ppbs", cap, ModeLayout(5, 2, 11, 0))
    assert len(calls) == 4 * sum((n + 1) ** 2 for n in range(cap))
    assert protocol._gate_operator.cache_info().currsize == 0


def test_herald_operators_reject_a_gate_that_mixes_polarization(monkeypatch):
    # a half-wave plate on the signal after the gate turns n_H into n_V, so
    # the meter blocks are no longer diagonal
    circuit = protocol.ppbs_cz_circuit

    def mixing_circuit(layout):
        return circuit(layout) + [oracles.hwp(math.pi / 8, layout.signal)]

    monkeypatch.setattr(protocol, "ppbs_cz_circuit", mixing_circuit)
    herald_operators.cache_clear()
    try:
        with pytest.raises(ValueError, match="'ppbs'.*e-"):
            herald_operators("ppbs", 3, DEFAULT_LAYOUT)
    finally:
        herald_operators.cache_clear()


def test_run_rejects_low_cap_and_foreign_basis():
    with pytest.raises(ValueError):
        herald_operators("ppbs", 1, DEFAULT_LAYOUT)
    with pytest.raises(ValueError):
        run_nla(SignalSpec("qubit_truncated", 0.5, loss=0.5), MeterSetting(1.1),
                photon_cap=1)
    rho, _ = phase_averaged_state(0.01, 4)
    with pytest.raises(ValueError):
        run_nla(rho, MeterSetting(1.1), photon_cap=3)


def test_vanished_herald_flags_none():
    # on the signal vacuum the ideal gate heralds with (1 - e^{i phi})/2,
    # exactly zero at phi = 0; a NaN phase must not pass as a herald either
    vacuum = SignalSpec("qubit_truncated", 0.0)
    rho, _ = phase_averaged_state(0.0, 3)
    for signal in (vacuum, rho):
        for phi in (0.0, math.nan):
            out = run_nla(signal, phi, "ideal")
            assert out.conditional_state is None
            assert not out.herald_probability > 0.0


def test_two_photon_meter_events_fail_quietly():
    # a signal V photon meeting the meter V photon on the central splitter
    # can leave both photons in one arm; with no single meter photon those
    # outcomes never herald
    lay = DEFAULT_LAYOUT
    basis, _, k_vv = herald_operators("ppbs", 2, lay)
    joint = build_basis(4, 2)
    occ_in = [0, 0, 0, 0]
    occ_in[lay.signal_v] = 1
    occ_in[lay.meter_v] = 1
    col = gate_operator("ppbs", 2)[:, joint.index_of(tuple(occ_in))]
    meter_photons = [occ[lay.meter_h] + occ[lay.meter_v]
                     for occ in joint.occupations]
    one = sum(abs(c) ** 2 for c, m in zip(col, meter_photons) if m == 1)
    two = sum(abs(c) ** 2 for c, m in zip(col, meter_photons) if m != 1)
    assert two > 0.1
    heralded = abs(k_vv[basis.index_of((0, 1))]) ** 2
    assert heralded == pytest.approx(one, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * math.pi))
def test_phase_insensitivity(theta):
    base = run_nla(SignalSpec("coherent", 0.02), MeterSetting(1.1))
    rot = run_nla(
        SignalSpec("coherent", 0.02 * cmath.exp(1j * theta)), MeterSetting(1.1)
    )
    assert rot.herald_probability == pytest.approx(
        base.herald_probability, abs=1e-12
    )
    assert rot.p1_out == pytest.approx(base.p1_out, abs=1e-12)


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, ModeLayout(1, 0, 2, 3)],
                         ids=["default", "swapped"])
def test_phase_averaged_diagonal_equals_the_per_n_loop(layout):
    for cap in (2, 3, 5):
        for alpha in (0.0, 0.03, 0.2 + 0.1j, 1.5):
            rho, _ = phase_averaged_state(alpha, cap, layout=layout)
            basis = rho.basis
            vpos = basis.position(layout.signal_v)
            mean = abs(alpha) ** 2
            want = np.zeros((basis.size, basis.size), dtype=complex)
            for n in range(cap + 1):
                occ = [0, 0]
                occ[vpos] = n
                want[basis.index_of(tuple(occ)), basis.index_of(tuple(occ))] = (
                    math.exp(-mean) * mean**n / math.factorial(n)
                )
            assert rho.matrix.dtype == want.dtype
            assert rho.matrix.tobytes() == want.tobytes()


def test_phase_averaged_equals_quadrature_average():
    alpha = 0.03
    rho, tail = phase_averaged_state(alpha, 3)
    assert tail < 1e-10
    out_mixed = run_nla(rho, MeterSetting(1.1))
    heralds = []
    p1s = []
    n_grid = 8
    for k in range(n_grid):
        theta = 2 * math.pi * k / n_grid
        out = run_nla(
            SignalSpec("coherent", alpha * cmath.exp(1j * theta)),
            MeterSetting(1.1),
        )
        heralds.append(out.herald_probability)
        p1s.append(out.p1_out * out.herald_probability)
    mean_herald = math.fsum(heralds) / n_grid
    assert out_mixed.herald_probability == pytest.approx(mean_herald, rel=1e-9)
    # conditional occupations weighted by their herald probability average
    # to the mixed-run conditional occupation
    assert out_mixed.p1_out * out_mixed.herald_probability == pytest.approx(
        math.fsum(p1s) / n_grid, rel=1e-9
    )


def test_loss_before_gate_produces_mixed_signal():
    spec = SignalSpec("qubit_truncated", 0.5, loss=0.6)
    state, _ = prepare_signal(spec, 3)
    assert isinstance(state, DensityOperator)
    n2 = math.exp(-0.25)
    p1 = fock.occupancy_probability(state, DEFAULT_LAYOUT.signal_v, 1)
    assert p1 == pytest.approx(n2 * 0.25 * 0.4, rel=1e-12)
    out = run_nla(spec, MeterSetting(1.1))
    assert isinstance(out.conditional_state, DensityOperator)
    assert out.amplitude_gain is None


def test_two_mode_coherent_is_product():
    state, tail = two_mode_coherent(0.01, 0.02, 3)
    a = oracles.coherent_amps(0.01, 3)
    b = oracles.coherent_amps(0.02, 3)
    basis = state.basis
    hpos = basis.position(DEFAULT_LAYOUT.signal_h)
    for occ in basis.occupations:
        nh, nv = occ[hpos], occ[1 - hpos]
        assert state.amplitude(occ) == pytest.approx(a[nh] * b[nv], abs=1e-15)
    assert tail < 1e-9


_SPREAD = ModeLayout(5, 2, 11, 0)  # signal H sorts after signal V


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, _SPREAD],
                         ids=["default", "spread"])
@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6, 7])
def test_two_mode_coherent_matches_the_tensor_oracle(cap, layout):
    # the gathered product holds the bits of the pair loop, and the weight
    # over the cap adds the same terms in the same order
    rng = np.random.default_rng(cap)
    pairs = [(0.0, 0.3 + 0.2j), (0.0, 0.0), (0.25 - 0.1j, 0.3 + 0.2j),
             (-0.4j, 0.15), (0.2, -0.35 - 0.05j), (0.3 + 0.3j, 0.0)]
    pairs += [tuple(complex(*z) for z in 0.4 * rng.normal(size=(2, 2)))
              for _ in range(6)]
    for alpha_h, alpha_v in pairs:
        h, tail_h = truncated_coherent(alpha_h, cap, mode=layout.signal_h,
                                       truncation_bound=1.0)
        v, tail_v = truncated_coherent(alpha_v, cap, mode=layout.signal_v,
                                       truncation_bound=1.0)
        want, dropped = oracles.tensor(h, v, photon_cap=cap)
        state, weight = two_mode_coherent(alpha_h, alpha_v, cap, layout=layout,
                                          truncation_bound=1.0)
        assert state.basis == want.basis
        assert np.array_equal(state.amplitudes, want.amplitudes)
        assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert weight == tail_h + tail_v + dropped
        if alpha_h == 0.0:
            assert dropped == 0.0


def test_two_mode_coherent_bounds_both_tails():
    for alpha_h, alpha_v in ((1.5, 0.0), (0.0, 1.5)):
        with pytest.raises(TruncationError, match="beyond cap 3"):
            two_mode_coherent(alpha_h, alpha_v, 3)


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, _SPREAD],
                         ids=["default", "spread"])
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_ideal_cz_matches_the_basis_loop(cap, layout):
    # the closed-form diagonals hold the bits of a loop over the signal
    # basis, +0 at the cap included
    basis, k_hh, k_vv = herald_operators("ideal", cap, layout)
    sv = basis.position(layout.signal_v)
    want_hh = np.zeros(basis.size, dtype=complex)
    want_vv = np.zeros(basis.size, dtype=complex)
    for i, occ in enumerate(basis.occupations):
        if sum(occ) < cap:
            want_hh[i] = 1.0
            want_vv[i] = -1.0 if occ[sv] == 1 else 1.0
    assert k_hh.dtype == k_vv.dtype == complex
    assert k_hh.tobytes() == want_hh.tobytes()
    assert k_vv.tobytes() == want_vv.tobytes()


def test_ideal_herald_builds_no_joint_matrix():
    # a dense joint-basis gate at cap 12 would take 1820^2 complex entries
    # (53 MB); the closed form needs only the 91 signal states
    tracemalloc.start()
    try:
        herald_operators.__wrapped__("ideal", 12, DEFAULT_LAYOUT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_meter_setting_wraps_phase():
    wrapped = MeterSetting(3 * math.pi).phi
    assert abs(wrapped) == pytest.approx(math.pi, abs=1e-12)
    assert MeterSetting(2.5 * math.pi).phi == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert MeterSetting(-0.5).phi == -0.5


def test_signal_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec("squeezed", 0.1)
    with pytest.raises(ValueError):
        SignalSpec("coherent", 0.1, loss=1.2)
    for bad in (math.nan, math.inf, complex(0.1, math.nan)):
        with pytest.raises(ValueError):
            SignalSpec("coherent", bad)
    with pytest.raises(ValueError):
        SignalSpec("coherent", 0.1, loss=math.nan)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            MeterSetting(bad)


def test_ladders_past_170_are_finite_and_keep_the_closed_form_below():
    state, tail = truncated_coherent(0.1, 171)
    amps = state.amplitudes
    assert np.all(np.isfinite(amps)) and tail == 0.0
    pref = math.exp(-0.01 / 2.0)
    assert amps[:171].tolist() == [
        complex(pref * 0.1**n / math.sqrt(math.factorial(n))) for n in range(171)
    ]
    # past 170 each term is the last one times alpha / sqrt(n)
    big, _ = truncated_coherent(8.0, 300, truncation_bound=1e-12)
    a = big.amplitudes
    assert np.all(np.isfinite(a))
    past = np.arange(171, 175)
    assert a[171:175] == pytest.approx(a[170:174] * 8.0 / np.sqrt(past), rel=1e-15)
    assert math.fsum(abs(a) ** 2) == pytest.approx(1.0, abs=1e-12)
    weights = protocol._poisson_weights(64.0, 300)
    assert weights[:171].tolist() == [
        math.exp(-64.0) * 64.0**n / math.factorial(n) for n in range(171)
    ]
    assert np.all(np.isfinite(weights))
    assert weights[171:] == pytest.approx(np.abs(a[171:]) ** 2, rel=1e-12)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


def test_ladders_continue_where_the_closed_form_power_overflows():
    # 144^n passes the largest float below n = 170: the weights before it
    # keep the bits of the closed form, the rest follow w_n = w_{n-1} mean / n
    first = 0
    with pytest.raises(OverflowError):
        while 144.0**first:
            first += 1
    assert first < 170
    weights = protocol._poisson_weights(144.0, 400).tolist()
    assert weights[:first] == [
        math.exp(-144.0) * 144.0**n / math.factorial(n) for n in range(first)
    ]
    assert weights[first:] == [
        weights[n - 1] * 144.0 / n for n in range(first, 401)
    ]
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
    # at |alpha| = 70 the power overflows too, but exp(-|alpha|^2 / 2)
    # already underflows to 0: the amplitudes are 0 and the tail is all of
    # the weight, so only a bound of 1 admits them
    amps, tail = protocol._coherent_ladder(70 + 0j, 6000, 1.0)
    assert amps.shape == (6001,) and not np.any(amps) and tail == 1.0
    for alpha in (70 + 0j, 70):
        with pytest.raises(TruncationError, match="beyond cap 6000"):
            truncated_coherent(alpha, 6000)
