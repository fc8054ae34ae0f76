"""Heralded amplification: gains, herald probabilities, state preparation."""

import cmath
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from nla_weaksim import experiment, fock, protocol
from nla_weaksim.elements import DEFAULT_LAYOUT, ModeLayout
from nla_weaksim.fock import State, TruncationError, build_basis
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
    prepare_signal,
    run_nla,
    two_mode_coherent,
)

PHI_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3]

_SPREAD = ModeLayout(5, 2, 11, 0)  # signal H sorts after signal V


def test_truncated_coherent_amplitudes_and_tail():
    amps, tail = protocol._coherent_ladder(0.1, 3)
    expect = oracles.coherent_amps(0.1, 3)
    assert np.allclose(amps, expect, atol=1e-15)
    assert tail == pytest.approx(4.133472e-10, rel=1e-5)
    assert tail == pytest.approx(oracles.poisson_tail(0.01, 3), rel=1e-9)
    _, tail3 = protocol._coherent_ladder(0.3, 3)
    assert tail3 == pytest.approx(2.544115e-06, rel=1e-5)


@pytest.mark.parametrize("mean", [1e-4, 5e-4, 1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("cap", [2, 3, 4])
def test_poisson_tail_is_summed_not_cancelled(mean, cap):
    """A tail far below 1e-16 keeps its digits: one minus the head sum
    would cancel to 0 or to rounding noise."""
    alpha = math.sqrt(mean)
    want = oracles.poisson_tail(abs(alpha) ** 2, cap)
    _, tail = protocol._coherent_ladder(alpha, cap)
    _, tail_mixed = phase_averaged_state(alpha, cap)
    assert tail == pytest.approx(want, rel=1e-12, abs=0.0)
    assert tail_mixed == pytest.approx(want, rel=1e-12, abs=0.0)


def test_poisson_tail_of_a_large_mean():
    # most of the weight is beyond the cap, where one minus the head is exact
    _, tail = phase_averaged_state(3.0, 2)
    assert tail == pytest.approx(oracles.poisson_tail(9.0, 2), rel=1e-12, abs=0.0)


def test_truncated_coherent_rejects_large_tail():
    # both ladders report the same weight beyond the cap; a run and an input
    # size of either signal hold it, with the weight at the cap, to the bound
    _, beyond = protocol._coherent_ladder(1.5, 3)
    assert beyond == pytest.approx(oracles.poisson_tail(2.25, 3), rel=1e-12)
    assert phase_averaged_state(1.5, 3)[1] == beyond
    for kind in ("coherent", "phase_averaged"):
        spec = SignalSpec(kind, 1.5)
        match = f"{kind.replace('_', '-')} weight .* beyond and at cap 3 "
        with pytest.raises(TruncationError, match=match):
            run_nla(spec, MeterSetting(1.1), photon_cap=3)
        with pytest.raises(TruncationError, match=match):
            experiment.measure_input_size(spec, photon_cap=3)


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


def test_ppbs_gate_is_the_composed_circuit_bit_for_bit():
    # the closed-form 4 x 4 of production against the oracle circuit, its
    # three splitters composed, and the 2 x 2 blocks of the dict reference
    gate = protocol._PPBS_GATE
    combined = oracles.compose_transforms(
        oracles.ppbs_cz_elements(DEFAULT_LAYOUT))
    assert gate.modes == combined.modes == DEFAULT_LAYOUT.modes()
    assert gate.kind == combined.kind == "subunitary"
    assert gate.matrix.tobytes() == combined.matrix.tobytes()
    assert np.max(np.abs(gate.matrix - oracles.ppbs_circuit_matrix())) < 1e-14
    # no entry between an H mode (signal H, meter H) and a V mode
    is_v = np.isin(gate.modes, (DEFAULT_LAYOUT.signal_v, DEFAULT_LAYOUT.meter_v))
    assert np.count_nonzero(gate.matrix[is_v[:, None] != is_v]) == 0


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
    basis, k_hh, _ = herald_operators(gate, cap)

    def draw(lo):
        return data.draw(arrays(float, basis.size, elements=st.floats(lo, 1.0)))

    psi = draw(-1.0) + 1j * draw(-1.0)
    pops = draw(0.0) if mixed else np.zeros(basis.size)
    if data.draw(st.booleans()):
        # below the cap the ideal gate's K_HH keeps all of the weight
        at_cap = np.array(basis.totals()) == cap
        psi[at_cap] = 0.0
        pops[at_cap] = 0.0
    state = State(basis, psi, pops)
    weight = np.trace(oracles.dense(state)).real
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


def test_truncation_weight_bounds_the_herald_error():
    # a run misses the herald of the Poisson weight at and beyond the cap,
    # each photon number n heralding with |M_n|^2 <= 1, so the distance to
    # the herald with no cap stays within the truncation weight, plus
    # rounding; specs the bound refuses are skipped
    rng = np.random.default_rng(5)
    runs = 0
    for _ in range(2000):
        gate = ("ideal", "ppbs")[rng.integers(2)]
        cap = int(rng.integers(2, 31 if gate == "ideal" else 9))
        mean = math.exp(rng.uniform(math.log(1e-5), math.log(10.0)))
        phi = phi_for_gain(rng.uniform(0.2, 10.0))
        if rng.integers(2):
            spec = SignalSpec("phase_averaged", math.sqrt(mean))
        else:
            spec = SignalSpec("coherent", cmath.rect(math.sqrt(mean),
                                                     rng.uniform(-math.pi, math.pi)))
        try:
            out = run_nla(spec, MeterSetting(phi), gate, photon_cap=cap)
        except TruncationError:
            continue
        want = oracles.herald_probability_uncapped(gate, mean, phi)
        assert abs(out.herald_probability - want) <= (out.truncation_weight
                                                      + 1e-14 * want)
        runs += 1
    assert runs > 1000


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
                    got = cond.amplitudes[cond.basis.index_of(occ)]
                    assert got == pytest.approx(amp / norm, abs=1e-10)


def test_diagonal_input_matches_weighted_reference():
    # a diagonal input heralds as the mixture of its Fock components; loss
    # thins the Poisson ladder well past the cap before it is cut there
    alpha, phi = 0.3, 1.1
    for cap in (2, 3):
        long = cap + 30
        pops = [math.exp(-(alpha**2)) * alpha ** (2 * n) / math.factorial(n)
                for n in range(long + 1)]
        for loss in (0.0, 0.4):
            weights = oracles.loss_via_ancilla(pops, loss, long)[:cap + 1]
            spec = SignalSpec("phase_averaged", alpha, loss=loss)
            signal = spec
            want_weight = (weights[cap]
                           + oracles.poisson_tail((1.0 - loss) * alpha**2, cap))
            if want_weight > protocol.TRUNCATION_BOUND:
                # both cap-2 inputs leave too much weight at the cap for a
                # spec run; their prepared state, with no tail, heralds
                with pytest.raises(TruncationError, match="at cap 2"):
                    run_nla(spec, MeterSetting(phi), photon_cap=cap)
                signal, want_weight = prepare_signal(spec, cap)[0], weights[cap]
            for gate in ("ppbs", "ideal"):
                out = run_nla(signal, MeterSetting(phi), gate, photon_cap=cap)
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
                got = (oracles.dense(out.conditional_state)
                       * out.herald_probability)
                assert np.max(np.abs(got - want)) < 1e-12
                assert out.truncation_weight == pytest.approx(want_weight,
                                                              rel=1e-9)


@pytest.mark.parametrize("cap", [2, 4, 8])
@pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["coherent", "phase_averaged",
                                  "qubit_truncated"])
def test_prepared_lossy_signal_is_loss_then_cut(kind, loss, cap):
    # loss on a ladder far past the cap, then the cut, is the state that
    # attenuation prepares; the signal keeps its family: a coherent one
    # stays pure, a phase-averaged one has no pure part, and only a lossy
    # two-level one has both parts
    rng = np.random.default_rng([cap, int(10 * loss), len(kind)])
    for _ in range(3):
        alpha = cmath.rect(rng.uniform(0.05, 0.3), rng.uniform(-math.pi, math.pi))
        state, tail = prepare_signal(SignalSpec(kind, alpha, loss=loss), cap)
        want = oracles.lossy_signal(kind, alpha, loss, cap)
        pure = kind == "coherent" or kind == "qubit_truncated" and loss == 0.0
        assert state.populations.any() != pure
        got = oracles.dense(state)
        assert np.max(np.abs(got - want)) < 1e-14
        if kind == "phase_averaged":
            assert not state.amplitudes.any()
        if kind == "qubit_truncated":
            assert tail == 0.0
        else:
            mean = (1.0 - loss) * abs(alpha) ** 2
            assert tail == pytest.approx(oracles.poisson_tail(mean, cap),
                                         rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("cap", [2, 4, 8])
@pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["coherent", "phase_averaged",
                                  "qubit_truncated"])
def test_conditional_state_is_the_dense_herald(kind, loss, cap):
    # the herald maps psi to M psi and p to |M|^2 p: on the dense matrix
    # that is M rho M^dag, renormalized by its trace, the herald probability
    rng = np.random.default_rng([cap, int(10 * loss), len(kind), 1])
    for gate in ("ppbs", "ideal"):
        _, k_hh, k_vv = herald_operators(gate, cap)
        for phi in (0.4, 1.1, 2.0, math.pi):
            alpha = cmath.rect(rng.uniform(0.05, 0.3),
                               rng.uniform(-math.pi, math.pi))
            spec = SignalSpec(kind, alpha, loss=loss)
            m = (k_hh - cmath.exp(1.0j * phi) * k_vv) / 2.0
            state, tail = prepare_signal(spec, cap)
            rho = m[:, None] * oracles.dense(state) * m.conj()[None, :]
            prob = np.trace(rho).real
            signal = spec
            if tail + oracles.weight_at_cap(state) > protocol.TRUNCATION_BOUND:
                # some cap-2 draws leave too much weight at the cap for a
                # spec run; their prepared state heralds all the same
                with pytest.raises(TruncationError, match="at cap 2"):
                    run_nla(spec, phi, gate, photon_cap=cap)
                signal = state
            out = run_nla(signal, phi, gate, photon_cap=cap)
            assert out.herald_probability == pytest.approx(prob, rel=1e-13)
            cond = out.conditional_state
            assert np.max(np.abs(oracles.dense(cond) - rho / prob)) < 1e-14
            assert not cond.amplitudes.flags.writeable
            assert not cond.populations.flags.writeable


def test_lossy_coherent_run_is_the_attenuated_lossless_run():
    # one decision point: the lossy run is the lossless run at the amplitude
    # that reaches the gate, and its gain is taken against that amplitude
    alpha, loss = 0.03, 0.3
    lossy = run_nla(SignalSpec("coherent", alpha, loss=loss), MeterSetting(1.1),
                    photon_cap=4)
    plain = run_nla(SignalSpec("coherent", math.sqrt(1.0 - loss) * alpha),
                    MeterSetting(1.1), photon_cap=4)
    assert lossy.conditional_state.amplitudes.tobytes() == \
        plain.conditional_state.amplitudes.tobytes()
    for field in ("herald_probability", "p1_out", "truncation_weight",
                  "amplitude_gain"):
        assert getattr(lossy, field) == getattr(plain, field)
    g = analytic(1.1, alpha).g
    assert lossy.amplitude_gain == pytest.approx(g / math.sqrt(3.0), rel=1e-3)
    gone = run_nla(SignalSpec("coherent", alpha, loss=1.0), MeterSetting(1.1),
                   photon_cap=4)
    assert gone.amplitude_gain is None


@pytest.mark.parametrize("kind", ["coherent", "qubit_truncated",
                                  "phase_averaged"])
def test_prepared_signal_is_read_only(kind):
    # the prepared arrays skip the constructor's copies and checks; handed
    # to it they pass them and come back the same bytes
    for loss in (0.0, 0.2):
        state, _ = prepare_signal(SignalSpec(kind, complex(0.03, -0.02),
                                             loss=loss), 4)
        assert not state.weights().flags.writeable
        for built in (state, phase_averaged_state(0.05, 4)[0],
                      two_mode_coherent(0.02, 0.03j, 4)[0]):
            ref = State(built.basis, built.amplitudes, built.populations)
            for got, want in ((built.amplitudes, ref.amplitudes),
                              (built.populations, ref.populations)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable


def test_readout_is_read_only_and_empties_with_the_protocol_caches():
    # the benchmark's cold-gate op starts from no cache by clearing every
    # cache_clear in protocol
    run_nla(SignalSpec("coherent", 0.02), MeterSetting(1.1), photon_cap=4)
    assert protocol._readout.cache_info().currsize >= 1
    for rows in protocol._readout("ppbs", 4):
        assert not rows.flags.writeable
    for value in vars(protocol).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()
    assert protocol._readout.cache_info().currsize == 0
    assert herald_operators.cache_info().currsize == 0


def _odds_of_weights(basis, weights):
    """P(1)/P(0) of signal V, summed over the occupation tuples."""
    pos = basis.position(DEFAULT_LAYOUT.signal_v)
    p0, p1 = (math.fsum(w for occ, w in zip(basis.occupations, weights)
                        if occ[pos] == n) for n in (0, 1))
    return p1 / p0


@pytest.mark.parametrize("cap", [3, 4, 5, 6])
@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("gate", ["ppbs", "ideal"])
@pytest.mark.parametrize("kind", ["coherent", "qubit_truncated",
                                  "phase_averaged"])
def test_run_reports_both_input_sizes_of_its_signal(kind, gate, loss, cap):
    # second route: the diagonal of the dense density matrix of the prepared
    # signal, and the closed-form herald diagonals for the through-gate size
    k_hh, _ = oracles.herald_diagonals(gate, cap)
    for alpha in (0.02, 0.3, complex(0.1, 0.2)):
        spec = SignalSpec(kind, alpha, loss=loss)
        state, _ = prepare_signal(spec, cap)
        diag = np.diag(oracles.dense(state)).real
        out = run_nla(spec, MeterSetting(1.1), gate, photon_cap=cap)
        assert out.size_in_true == pytest.approx(
            _odds_of_weights(state.basis, diag), rel=1e-12, abs=0.0)
        assert out.size_in_measured == pytest.approx(
            _odds_of_weights(state.basis, np.abs(k_hh) ** 2 * diag),
            rel=1e-12, abs=0.0)
        assert out.size_in_true == oracles.true_input_size(
            spec, photon_cap=cap)
        assert out.size_in_measured == experiment.measure_input_size(
            spec, gate, photon_cap=cap)


@pytest.mark.parametrize("cap", range(2, 9))
@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("gate", ["ppbs", "ideal"])
@pytest.mark.parametrize("kind", ["coherent", "qubit_truncated",
                                  "phase_averaged"])
def test_readout_of_a_spec_run_is_the_marginal_bit_for_bit(kind, gate, loss,
                                                          cap):
    # a spec's weights sit on the n_H = 0 column, so each readout row meets
    # one of them and the product is the np.bincount marginal exactly; on
    # another layout the run reads the same numbers
    for alpha in (0.02, 0.1, complex(0.07, 0.05)):
        spec = SignalSpec(kind, alpha, loss=loss)
        state, beyond = prepare_signal(spec, cap)
        truncation, size_true, size_gate = oracles.marginal_input(
            gate, state, beyond)
        for layout in (DEFAULT_LAYOUT, _SPREAD):
            out = run_nla(spec, MeterSetting(1.1), gate, photon_cap=cap,
                          layout=layout)
            got = (out.truncation_weight, out.size_in_true,
                   out.size_in_measured)
            assert got == (truncation, size_true, size_gate)
            assert (out.p1_out, out.size_out) == oracles.marginal_output(
                out.conditional_state, layout.signal_v)
        assert experiment.measure_input_size(spec, gate,
                                             photon_cap=cap) == size_gate


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["ppbs", "ideal"]),
    st.integers(min_value=2, max_value=8),
    st.booleans(),
    st.sampled_from([DEFAULT_LAYOUT, _SPREAD]),
    st.data(),
)
def test_readout_of_a_prebuilt_state_is_the_marginal(gate, cap, mixed, layout,
                                                     data):
    # a prebuilt state spreads its weight over the basis, where the product
    # and np.bincount sum in their own orders
    basis, _, _ = herald_operators(gate, cap)

    def draw(lo):
        return data.draw(arrays(float, basis.size, elements=st.floats(lo, 1.0)))

    psi = draw(-1.0) + 1j * draw(-1.0)
    pops = draw(0.0) if mixed else np.zeros(basis.size)
    state = State(basis, psi, pops)
    out = run_nla(state, MeterSetting(1.1), gate, photon_cap=cap,
                  layout=layout)
    got = [out.truncation_weight, out.size_in_true, out.size_in_measured]
    want = list(oracles.marginal_input(gate, state))
    if out.conditional_state is not None:
        got += [out.p1_out, out.size_out]
        want += oracles.marginal_output(out.conditional_state,
                                        layout.signal_v)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g == pytest.approx(w, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("gate", ["ppbs", "ideal"])
def test_a_vacuum_free_input_has_no_sizes(gate):
    # all weight on n_V = 1 or 2: no size has a vacuum to divide by
    basis, _, _ = herald_operators(gate, 4)
    n_v = basis.counts(DEFAULT_LAYOUT.signal_v)
    state = State(basis, np.where(n_v == 1, 0.6, 0.0),
                  np.where(n_v == 2, 0.1, 0.0))
    out = run_nla(state, MeterSetting(1.1), gate, photon_cap=4)
    assert out.conditional_state is not None
    assert (out.size_in_true, out.size_in_measured, out.size_out) == \
        (None, None, None)
    assert out.p1_out > 0.0


@pytest.mark.parametrize("cap", [2, 3, 4, 8])
def test_coherent_signal_is_the_product_with_an_empty_h_mode(cap, monkeypatch):
    # the prepared signal writes one V ladder to the n_H = 0 column; the
    # gathered product with a vacuum H ladder is the second route to it
    monkeypatch.setattr(protocol, "TRUNCATION_BOUND", 1.0)
    rng = np.random.default_rng(200 + cap)
    alphas = [0.0, 0.015, 0.3, 1.2]
    alphas += [complex(*z) for z in 0.4 * rng.normal(size=(4, 2))]
    for alpha in alphas:
        for loss in (0.0, 0.3):
            spec = SignalSpec("coherent", alpha, loss=loss)
            state, tail = prepare_signal(spec, cap)
            want, weight = two_mode_coherent(0.0, spec.alpha_at_gate, cap)
            assert state.basis == want.basis
            assert np.array_equal(state.amplitudes, want.amplitudes)
            if isinstance(alpha, float):
                assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert not state.populations.any()
            assert tail == weight


def test_prepared_signal_does_not_mix_float_and_complex_amplitudes():
    # the specs compare equal, and the recursion, one real product and
    # quotient per term, gives both amplitude types equal arrays
    a = 0.0307
    direct = {t: two_mode_coherent(0.0, t(a), 4)[0].amplitudes
              for t in (float, complex)}
    assert np.array_equal(direct[float], direct[complex])
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


def _joint_gate(gate, cap):
    """The gate on the joint basis: the production lift of the postselected
    gate, the oracle's diagonal matrix for the ideal one."""
    if gate == "ppbs":
        return gate_operator(gate, cap)
    return oracles.ideal_cz(build_basis(4, cap))


def test_herald_operators_cut_the_lifted_gate():
    basis, k_hh, k_vv = herald_operators("ideal", 3)
    again = herald_operators("ideal", 3)
    assert again[1] is k_hh and again[2] is k_vv
    for k in (k_hh, k_vv):
        assert k.shape == (basis.size,)
        assert not k.flags.writeable
    assert basis == build_basis(2, 3, modes=DEFAULT_LAYOUT.signal)
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
    (cap, gate) for cap in range(2, 11) for gate in ("ideal", "ppbs")
] + [(20, "ideal"), (44, "ideal")])
def test_herald_diagonals_match_closed_form(gate, cap):
    basis, k_hh, k_vv = herald_operators(gate, cap)
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
    basis, k_hh, k_vv = herald_operators(gate, cap)
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


def _meter_cut(layout, basis, joint, meter_mode, inside):
    """Joint-basis indices, with the modes of ``layout``, of one meter photon
    in ``meter_mode`` next to each fixed-basis occupation (n_H, n_V) in
    ``inside``."""
    cut = []
    for i in inside:
        occ = [0] * joint.num_modes
        for mode, n in zip(layout.signal, basis.occupations[i]):
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
    # the gate is composed from the oracle circuit's splitters on the
    # layout's four modes, with the discard ports above them, and lifted
    # whole.  Its one-meter-photon diagonals hold the bits of a block lift
    # on the same embedding, and on the fixed modes those of the herald,
    # which lifts only its block (or, for the ideal gate, writes it in
    # closed form).  On other embeddings the permanents see reordered rows
    # and columns and round apart from the herald, within 1e-12.
    basis, k_hh, k_vv = herald_operators(gate, cap)
    joint = build_basis(4, cap, modes=layout.modes())
    if gate == "ppbs":
        circuit = oracles.compose_transforms(oracles.ppbs_cz_elements(layout))
        u = fock.lift_mode_transform(circuit, joint)
    else:
        u = oracles.ideal_cz(joint, layout=layout)
    inside = np.flatnonzero(np.array(basis.totals()) < cap)
    for meter_mode, k in zip(layout.meter, (k_hh, k_vv)):
        cut = _meter_cut(layout, basis, joint, meter_mode, inside)
        want = np.zeros(basis.size, dtype=complex)
        want[inside] = u[cut, cut]
        if gate == "ppbs":
            block = fock.lift_mode_transform(circuit, joint, cut)
            assert np.array_equal(block.diagonal(), want[inside])
        if layout == DEFAULT_LAYOUT:
            assert np.array_equal(k, want)
        else:
            assert np.max(np.abs(k - want)) < 1e-12


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
    monkeypatch.setattr(protocol, "gate_operator", functools.lru_cache(
        maxsize=None)(protocol.gate_operator.__wrapped__))
    herald_operators.__wrapped__("ppbs", cap)
    assert len(calls) == 4 * sum((n + 1) ** 2 for n in range(cap))
    assert protocol.gate_operator.cache_info().currsize == 0


@pytest.mark.parametrize("layout", [ModeLayout(11, 12, 5, 6),
                                    ModeLayout(5, 2, 11, 0)],
                         ids=["shifted", "swapped"])
def test_a_layout_only_names_the_modes_of_the_output(layout):
    # the library contract of the benchmark's cold-gate op: on any layout the
    # run is the default one, its conditional state carried onto the
    # layout's signal modes, and one herald serves every layout
    herald_operators.cache_clear()
    for spec in (SignalSpec("coherent", 0.02),
                 SignalSpec("phase_averaged", 0.02, loss=0.3)):
        base = run_nla(spec, MeterSetting(1.1), photon_cap=4)
        out = run_nla(spec, MeterSetting(1.1), photon_cap=4, layout=layout)
        ref, cond = base.conditional_state, out.conditional_state
        assert cond.basis.modes == tuple(sorted(layout.signal))
        h, v = (cond.basis.position(m) for m in layout.signal)
        order = [ref.basis.index_of((occ[h], occ[v]))
                 for occ in cond.basis.occupations]
        assert cond.amplitudes.tobytes() == ref.amplitudes[order].tobytes()
        assert cond.populations.tobytes() == ref.populations[order].tobytes()
        for field in ("herald_probability", "p1_out", "truncation_weight",
                      "amplitude_gain"):
            assert getattr(out, field) == getattr(base, field)
        assert experiment.measure_input_size(
            spec, photon_cap=4, layout=layout
        ) == experiment.measure_input_size(spec, photon_cap=4)
        assert experiment.state_size(cond, layout.signal_v) == \
            experiment.state_size(ref, DEFAULT_LAYOUT.signal_v)
    assert herald_operators.cache_info().currsize == 1


@pytest.mark.parametrize("cap", range(2, 11))
def test_ppbs_herald_matches_the_closed_form_at_every_cap(cap):
    # the lift through permanents against K_HH = 3^{-(1 + N)/2} and
    # K_VV = 3^{-n_H/2} tau^{n_V - 1} (tau^2 - n_V rho^2); their largest
    # gap reads 0 at cap 2, 2.6e-15 at cap 4, 1.9e-13 at cap 8 and 6.4e-13
    # at cap 10, the permanents' rounding
    _, k_hh, k_vv = herald_operators("ppbs", cap)
    want_hh, want_vv = oracles.herald_diagonals("ppbs", cap)
    assert np.max(np.abs(k_hh - want_hh)) < 2e-12
    assert np.max(np.abs(k_vv - want_vv)) < 2e-12


def test_herald_operators_reject_a_gate_that_mixes_polarization(monkeypatch):
    # a half-wave plate on the signal after the gate turns n_H into n_V, so
    # the lifted meter blocks are no longer diagonal
    mixing = oracles.compose_transforms(
        oracles.ppbs_cz_elements(DEFAULT_LAYOUT)
        + [oracles.hwp(math.pi / 8, DEFAULT_LAYOUT.signal)])
    monkeypatch.setattr(protocol, "_PPBS_GATE", mixing)
    herald_operators.cache_clear()
    try:
        with pytest.raises(ValueError, match="'ppbs'.*off the diagonal"):
            herald_operators("ppbs", 3)
    finally:
        herald_operators.cache_clear()


def test_herald_lift_check_has_a_rounding_budget(monkeypatch):
    # a permanent that is off by rounding leaves entries off the diagonal of
    # the lifted block; they pass within the budget and fail beyond it
    permanent = fock.permanent
    monkeypatch.setattr(fock, "permanent", lambda a: permanent(a) + 2e-12)
    _, k_hh, k_vv = herald_operators.__wrapped__("ppbs", 4)
    want_hh, want_vv = oracles.herald_diagonals("ppbs", 4)
    assert np.max(np.abs(k_hh - want_hh)) < 1e-11
    assert np.max(np.abs(k_vv - want_vv)) < 1e-11
    monkeypatch.setattr(fock, "permanent", lambda a: permanent(a) + 1e-6)
    with pytest.raises(ValueError, match="'ppbs'.*off the diagonal"):
        herald_operators.__wrapped__("ppbs", 4)


def test_run_rejects_low_cap_and_foreign_basis():
    with pytest.raises(ValueError):
        herald_operators("ppbs", 1)
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
    basis, _, k_vv = herald_operators("ppbs", 2)
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
    # on a layout, in the order in which run_nla names its output modes; the
    # recursion meets the per-n closed form to a few roundings per term
    for cap in (2, 3, 5):
        basis, order = protocol._signal_order(layout.signal, cap)
        vpos = basis.position(layout.signal_v)
        for alpha in (0.0, 0.03, 0.2 + 0.1j, 1.5):
            rho, _ = phase_averaged_state(alpha, cap)
            assert not rho.amplitudes.any()
            got = rho.populations[order]
            mean = abs(alpha) ** 2
            want = np.zeros(basis.size)
            for n in range(cap + 1):
                occ = [0, 0]
                occ[vpos] = n
                want[basis.index_of(tuple(occ))] = (
                    math.exp(-mean) * mean**n / math.factorial(n)
                )
            assert got.dtype == want.dtype
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)


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
    assert state.populations.any()
    n2 = math.exp(-0.25)
    p1 = fock.occupancy_distribution(state, DEFAULT_LAYOUT.signal_v)[1]
    assert p1 == pytest.approx(n2 * 0.25 * 0.4, rel=1e-12)
    out = run_nla(spec, MeterSetting(1.1))
    assert out.conditional_state.populations.any()
    assert out.amplitude_gain is None


def test_two_mode_coherent_is_product():
    state, tail = two_mode_coherent(0.01, 0.02, 3)
    a = oracles.coherent_amps(0.01, 3)
    b = oracles.coherent_amps(0.02, 3)
    basis = state.basis
    hpos = basis.position(DEFAULT_LAYOUT.signal_h)
    for occ in basis.occupations:
        nh, nv = occ[hpos], occ[1 - hpos]
        got = state.amplitudes[basis.index_of(occ)]
        assert got == pytest.approx(a[nh] * b[nv], abs=1e-15)
    assert tail < 1e-9


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, _SPREAD],
                         ids=["default", "spread"])
@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6, 7])
def test_two_mode_coherent_matches_the_tensor_oracle(cap, layout, monkeypatch):
    # the gathered array product, in the order in which run_nla names the
    # layout's output modes, is the scalar pair loop on those modes to a few
    # ulps, and the weight beyond the cap adds the pairs the loop drops to
    # those outside both ladders; the bound admits every tail, as some
    # pairs leave more than 1e-3 beyond cap 2
    monkeypatch.setattr(protocol, "TRUNCATION_BOUND", 1.0)
    rng = np.random.default_rng(cap)
    pairs = [(0.0, 0.3 + 0.2j), (0.0, 0.0), (0.25 - 0.1j, 0.3 + 0.2j),
             (-0.4j, 0.15), (0.2, -0.35 - 0.05j), (0.3 + 0.3j, 0.0)]
    pairs += [tuple(complex(*z) for z in 0.4 * rng.normal(size=(2, 2)))
              for _ in range(6)]
    basis, order = protocol._signal_order(layout.signal, cap)
    for alpha_h, alpha_v in pairs:
        amps_h, tail_h = protocol._coherent_ladder(alpha_h, cap)
        amps_v, tail_v = protocol._coherent_ladder(alpha_v, cap)
        h, v = (State(build_basis(1, cap, modes=(mode,)), amps)
                for mode, amps in zip(layout.signal, (amps_h, amps_v)))
        want, dropped = oracles.tensor(h, v, photon_cap=cap)
        state, weight = two_mode_coherent(alpha_h, alpha_v, cap)
        got = state.amplitudes[order]
        assert basis == want.basis
        assert np.allclose(got, want.amplitudes, rtol=2e-15, atol=0.0)
        assert weight == pytest.approx(tail_h + tail_v - tail_h * tail_v
                                       + dropped, rel=1e-14)
        if alpha_h == 0.0:
            assert dropped == 0.0


@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6, 7, 8])
def test_pair_products_match_the_float_part_oracle(cap, monkeypatch):
    # the two-mode input's array product of its two ladders is the products
    # formed from the float parts to a few ulps, and 0 where a factor is 0;
    # the bound admits the largest inputs at the lowest caps
    monkeypatch.setattr(protocol, "TRUNCATION_BOUND", 1.0)
    rng = np.random.default_rng(100 + cap)
    pairs = [tuple(complex(*z) for z in 0.4 * rng.normal(size=(2, 2)))
             for _ in range(12)]
    pairs += [(0.0, 0.3), (0.2 - 0.1j, 0.0)]
    for g2 in (2.0, 3.0, 4.0, 5.0):
        for mag in (0.0015, 0.3):
            pairs.append((math.sqrt(g2) * mag, mag))
    for alpha_h, alpha_v in pairs:
        h, v = (protocol._coherent_ladder(a, cap)[0] for a in (alpha_h, alpha_v))
        state, _ = two_mode_coherent(alpha_h, alpha_v, cap)
        basis = state.basis
        want = oracles.pair_products(h, v)[basis.counts(DEFAULT_LAYOUT.signal_h),
                                           basis.counts(DEFAULT_LAYOUT.signal_v)]
        assert state.amplitudes.dtype == complex
        assert np.allclose(state.amplitudes, want, rtol=2e-15, atol=0.0)
        assert np.array_equal(state.amplitudes == 0, want == 0)


def test_two_mode_coherent_bounds_both_tails():
    for alpha_h, alpha_v in ((1.5, 0.0), (0.0, 1.5)):
        with pytest.raises(TruncationError, match="beyond and at cap 3"):
            two_mode_coherent(alpha_h, alpha_v, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    *[st.one_of(st.just(0.0), st.floats(1e-3, 6.0)) for _ in range(2)],
    st.floats(-math.pi, math.pi),
)
def test_two_mode_weight_is_the_pairs_outside_the_triangle(cap, mag_h, mag_v,
                                                           theta):
    # each pair (n_H, n_V) with n_H + n_V > cap counts once, also where both
    # photon numbers are beyond the cap, so the weight is a probability
    alpha_h, alpha_v = cmath.rect(mag_h, theta), mag_v
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "TRUNCATION_BOUND", 1.0)
        _, weight = two_mode_coherent(alpha_h, alpha_v, cap)
    want = oracles.two_mode_weight_outside(alpha_h, alpha_v, cap)
    assert weight == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert weight <= 1.0


def test_two_mode_refusal_names_a_probability():
    # both mean photon numbers far beyond cap 2: nearly every pair is
    # outside the triangle, and none is counted twice
    with pytest.raises(TruncationError, match=r"coherent weight 1\.000e\+00"):
        two_mode_coherent(math.sqrt(4.74) * 2.029, 2.029, 2)


@pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, _SPREAD],
                         ids=["default", "spread"])
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_ideal_cz_matches_the_basis_loop(cap, layout):
    # the closed-form diagonals, in the order in which run_nla names the
    # layout's output modes, hold the bits of a loop over the basis on those
    # modes, +0 at the cap included
    _, k_hh, k_vv = herald_operators("ideal", cap)
    basis, order = protocol._signal_order(layout.signal, cap)
    k_hh, k_vv = k_hh[order], k_vv[order]
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
        herald_operators.__wrapped__("ideal", 12)
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


def _lgamma_amplitudes(alpha, cap):
    # |alpha|^n e^{-|alpha|^2/2} / sqrt(n!) from its logarithm, n = 0..cap
    return np.array([math.exp(n * math.log(alpha) - alpha**2 / 2.0
                              - math.lgamma(n + 1) / 2.0) for n in range(cap + 1)])


def test_ladders_past_170_are_finite_and_keep_the_closed_form_below():
    # the recursion meets the closed form to rounding below 171, where n!
    # still is a float (to subnormal rounding at the smallest terms), and
    # the logarithmic closed form beyond it
    amps, tail = protocol._coherent_ladder(0.1, 171)
    assert np.all(np.isfinite(amps)) and tail == 0.0
    pref = math.exp(-0.01 / 2.0)
    assert amps[:171] == pytest.approx(
        [pref * 0.1**n / math.sqrt(math.factorial(n)) for n in range(171)],
        rel=1e-12, abs=1e-300)
    # past 170 each term is the last one times alpha / sqrt(n)
    a, _ = protocol._coherent_ladder(8.0, 300)
    assert np.all(np.isfinite(a))
    past = np.arange(171, 175)
    assert a[171:175] == pytest.approx(a[170:174] * 8.0 / np.sqrt(past), rel=1e-15)
    assert a == pytest.approx(_lgamma_amplitudes(8.0, 300), rel=1e-11)
    assert math.fsum(abs(a) ** 2) == pytest.approx(1.0, abs=1e-12)
    weights, _ = protocol._poisson(64.0, 300, "phase-averaged")
    weights = np.array(weights)
    assert weights[:171] == pytest.approx(
        [math.exp(-64.0) * 64.0**n / math.factorial(n) for n in range(171)],
        rel=1e-12)
    assert np.all(np.isfinite(weights))
    assert weights[171:] == pytest.approx(np.abs(a[171:]) ** 2, rel=1e-12)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


def test_ladders_continue_where_the_closed_form_power_overflows():
    # 144^n passes the largest float below n = 170: the weights are one
    # recursion w_n = w_{n-1} (mean / n) from e^{-mean}, which meets the
    # closed form to rounding before that n and goes on after it
    first = 0
    with pytest.raises(OverflowError):
        while 144.0**first:
            first += 1
    assert first < 170
    weights, _ = protocol._poisson(144.0, 400, "phase-averaged")
    assert weights[0] == math.exp(-144.0)
    assert weights[1:] == [weights[n - 1] * (144.0 / n) for n in range(1, 401)]
    assert weights[:first] == pytest.approx(
        [math.exp(-144.0) * 144.0**n / math.factorial(n) for n in range(first)],
        rel=1e-12)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
    # at |alpha| = 70 the power overflows too, but exp(-|alpha|^2 / 2)
    # already underflows to 0, and so would the tail's start exp(-4900):
    # the mean is refused
    for alpha in (70 + 0j, 70):
        with pytest.raises(ValueError, match="4900 is above the limit 700"):
            protocol._coherent_ladder(alpha, 6000)


def _lgamma_tail(mean, cap):
    # the Poisson terms from cap + 1, each from its own logarithm, summed
    # until they no longer count
    terms = [math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
             for n in range(cap + 1, cap + 2000)]
    assert terms[-1] < 1e-30 * terms[0]
    return math.fsum(terms)


def test_poisson_tail_at_large_means():
    # up to mean 700 the recursion from e^{-mean} is exact to rounding;
    # above it e^{-mean} nears underflow (at 900 it read a tail of 1), so
    # the mean is refused with an error that names the limit
    _, tail = protocol._poisson(700.0, 1200, "coherent")
    assert tail == pytest.approx(_lgamma_tail(700.0, 1200), rel=1e-9)
    assert 1e-70 < tail < 1e-60
    assert _lgamma_tail(900.0, 1500) == pytest.approx(9.8e-75, rel=1e-2)
    for kind in ("coherent", "phase-averaged"):
        with pytest.raises(ValueError, match=f"{kind} mean photon number "
                                             "900 is above the limit 700"):
            protocol._poisson(900.0, 1500, kind)
    with pytest.raises(ValueError, match="above the limit 700"):
        phase_averaged_state(30.0, 600)


@pytest.mark.parametrize("call", [
    "protocol.two_mode_coherent(complex('nan'), 0.0, 3)",
    "protocol.phase_averaged_state(float('nan'), 3)",
    "experiment.visibility_experiment([2.0], input_mag=float('nan'), "
    "phase_points=8)",
])
def test_a_nan_mean_raises_instead_of_hanging(call):
    # a NaN mean never settles the Poisson tail's term-by-term sum, so the
    # call runs in a subprocess whose timeout fails the test if it hangs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("from nla_weaksim import experiment, protocol\n"
            f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("mean photon number nan is not finite\n")
