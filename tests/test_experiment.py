"""Virtual experiments: sizing, sweeps, saturation, counting, visibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_weaksim import experiment, protocol
from nla_weaksim.elements import DEFAULT_LAYOUT
from nla_weaksim.experiment import (
    CountingModel,
    HeraldingModel,
    MeasurementConvention,
    classical_visibility_bound,
    gain_sweep,
    gain_vs_phi,
    measure_input_size,
    simulate_counts,
    state_size,
    true_input_size,
    visibility_experiment,
)
from nla_weaksim.fock import State, build_basis
from nla_weaksim.protocol import SignalSpec, two_mode_coherent


def test_state_size_is_vacuum_relative_odds():
    state, _ = two_mode_coherent(0.0, 0.02, 3)
    assert state_size(state, DEFAULT_LAYOUT.signal_v) == pytest.approx(
        4e-4, rel=1e-12)
    basis = build_basis(1, 1, modes=(0,))
    bare_photon = State(basis, np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ZeroDivisionError):
        state_size(bare_photon, 0)


def test_through_gate_measurement_scales_by_transmission():
    spec = SignalSpec("coherent", 0.01)
    true = true_input_size(spec)
    assert true == pytest.approx(1e-4, rel=1e-12)
    assert measure_input_size(spec, "ppbs") == pytest.approx(true / 3, rel=1e-12)
    assert measure_input_size(spec, "ideal") == pytest.approx(true, rel=1e-12)


def test_gain_sweep_reproduces_nominal_gain():
    inputs = [1e-5, 1e-4, 1e-3]
    res = gain_sweep([3.0], inputs, herald=None)
    ci = {c: i for i, c in enumerate(res.columns)}
    for row in res.rows:
        assert row[ci["output_ideal"]] == pytest.approx(
            3.0 * row[ci["input_measured"]], rel=1e-10
        )
        assert row[ci["input_measured"]] == pytest.approx(
            row[ci["input_true"]] / 3, rel=1e-10
        )


def test_gain_sweep_true_input_convention():
    res = gain_sweep(
        [2.0], [1e-4], convention=MeasurementConvention.TRUE_INPUT
    )
    ci = {c: i for i, c in enumerate(res.columns)}
    row = res.rows[0]
    assert row[ci["input_measured"]] == row[ci["input_true"]]
    # against the true input the postselected gate gains g2 / 3
    assert row[ci["output_ideal"]] == pytest.approx(
        row[ci["input_true"]] * 2.0 / 3.0, rel=1e-10
    )


def test_saturation_model_bends_model_column():
    model = HeraldingModel(epsilon=0.35)
    res = gain_vs_phi([0.0012], [0.1, 0.5, 1.0, 2.0], herald=model)
    ci = {c: i for i, c in enumerate(res.columns)}
    for row in res.rows:
        ideal, mod = row[ci["output_ideal"]], row[ci["output_model"]]
        assert mod <= ideal
        assert mod <= model.epsilon
        assert mod == pytest.approx(model.apply(ideal), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_herald_model_monotone_and_bounded(p1, p2):
    model = HeraldingModel(epsilon=0.35)
    f1, f2 = model.apply(p1), model.apply(p2)
    assert 0.0 <= f1 <= model.epsilon
    assert f1 <= p1
    if p1 < p2:
        assert f1 < f2


def test_herald_model_linear_at_small_rates():
    model = HeraldingModel(epsilon=0.35)
    for p in (1e-5, 1e-4, 0.01 * 0.35):
        assert model.apply(p) == pytest.approx(p, rel=1.01e-2)


def test_herald_model_validation():
    with pytest.raises(ValueError):
        HeraldingModel(0.0)
    with pytest.raises(ValueError):
        HeraldingModel(1.2)
    with pytest.raises(ValueError):
        HeraldingModel(0.35).apply(-1e-3)


def test_herald_model_rejects_a_nan_probability():
    with pytest.raises(ValueError, match="probability nan"):
        HeraldingModel(0.35).apply(math.nan)


def test_counting_model_rejects_a_nan_rate_scale():
    with pytest.raises(ValueError, match="rate_scale nan"):
        CountingModel(shots=10, seed=2, rate_scale=math.nan)


def test_counting_model_validation():
    with pytest.raises(ValueError, match="seed"):
        CountingModel(shots=100, seed=None)
    for shots in (-1, 0):
        with pytest.raises(ValueError, match=f"shots {shots} not positive"):
            CountingModel(shots=shots, seed=2)
    with pytest.raises(ValueError):
        CountingModel(shots=10, seed=2, rate_scale=0.0)
    assert CountingModel(shots=1, seed=2).shots == 1


def test_simulate_counts_is_deterministic_and_order_free():
    model = CountingModel(shots=10**6, seed=42)
    a1 = simulate_counts([1e-3, 2e-3], model)
    a2 = simulate_counts([1e-3, 2e-3], model)
    assert a1.dtype == np.int64
    assert np.array_equal(a1, a2)
    # entries are keyed by position, not by evaluation order
    b = simulate_counts([2e-3, 1e-3], model)
    assert b[1] != a1[1] or b[0] != a1[0]  # different lambdas per slot
    single0 = simulate_counts([1e-3], model)
    assert single0[0] == a1[0]


def test_simulate_counts_zero_and_overflow():
    model = CountingModel(shots=100, seed=1)
    assert simulate_counts([0.0], model).tolist() == [0]
    big = CountingModel(shots=10**12, seed=1, rate_scale=1e6)
    with pytest.raises(OverflowError):
        simulate_counts([1.0], big)


def test_sampled_gain_recovers_nominal_within_noise():
    counting = CountingModel(shots=10**9, seed=7, rate_scale=100.0)
    res = gain_sweep([3.0], [1e-4], counting=counting)
    ci = {c: i for i, c in enumerate(res.columns)}
    row = res.rows[0]
    gain, err = row[ci["gain_sampled"]], row[ci["gain_error"]]
    model = row[ci["output_model"]] / row[ci["input_measured"]]
    assert err > 0
    assert abs(gain - model) < 5 * err


def test_sampled_gain_zero_counts_flagged():
    counting = CountingModel(shots=10, seed=3)
    res = gain_sweep([3.0], [1e-5], counting=counting)
    ci = {c: i for i, c in enumerate(res.columns)}
    row = res.rows[0]
    assert math.isnan(row[ci["gain_sampled"]])
    assert row[ci["flag"]] == "zero_count"


def test_counted_gain_sweep_draws_row_r_from_stream_r():
    counting = CountingModel(shots=10**9, seed=7, rate_scale=100.0)
    res = gain_sweep([2.0, 5.0], [1e-4, 3e-4, 1e-3], counting=counting)
    ci = {c: i for i, c in enumerate(res.columns)}
    assert [row[ci["nominal_g2"]] for row in res.rows] == [2.0] * 3 + [5.0] * 3
    for r, row in enumerate(res.rows):
        herald = row[ci["herald_probability"]]
        out, inp = row[ci["output_model"]], row[ci["input_measured"]]
        probabilities = [herald * out / (1 + out), herald / (1 + out),
                         inp / (1 + inp), 1 / (1 + inp)]
        counts = simulate_counts(probabilities, counting, stream=r)
        assert row[ci["coinc_out"]:ci["singles_in"] + 1] == counts.tolist()
        assert row[ci["output_sampled"]] == row[ci["gain_sampled"]] * inp


def test_gain_sweep_samples_output_only_with_a_counting_model():
    assert "output_sampled" not in gain_sweep([3.0], [1e-4]).columns
    res = gain_sweep([3.0], [1e-5], counting=CountingModel(shots=10, seed=3))
    assert res.columns[-1] == "output_sampled"
    # a zero draw leaves no sampled gain, so no sampled output either
    assert math.isnan(res.rows[0][-1])


@pytest.mark.parametrize("sweep, points", [
    (lambda: gain_sweep([2.0, 3.0], [1e-4, 2e-4, 1e-4]), 6),
    (lambda: gain_vs_phi([1e-4, 2e-4, 1e-4], [0.5, 1.0, 1.5]), 9),
], ids=["gain_sweep", "gain_vs_phi"])
def test_sweep_rows_carry_their_runs_input_sizes(monkeypatch, sweep, points):
    # one run per row, whose input sizes fill the row; no separate sizing
    runs = []
    run_nla = protocol.run_nla

    def counted(spec, *args, **kwargs):
        runs.append(spec)
        return run_nla(spec, *args, **kwargs)

    def unused(*_args, **_kwargs):
        raise AssertionError("a sweep sizes its inputs through its runs")

    monkeypatch.setattr(protocol, "run_nla", counted)
    monkeypatch.setattr(experiment, "true_input_size", unused)
    monkeypatch.setattr(experiment, "measure_input_size", unused)
    res = sweep()
    assert len(runs) == len(res.rows) == points
    ci = {c: i for i, c in enumerate(res.columns)}
    for spec, row in zip(runs, res.rows):
        assert row[ci["input_true"]] == true_input_size(spec)
        assert row[ci["input_measured"]] == measure_input_size(spec)
        assert row[ci["input_measured"]] == pytest.approx(
            row[ci["input_true"]] / 3, rel=1e-10)


def test_gain_vs_phi_layout():
    res = gain_vs_phi([1e-4, 2e-4], [0.5, 1.0, 1.5])
    assert res.columns[0] == "phi"
    assert len(res.rows) == 6
    phis = [row[0] for row in res.rows]
    assert phis == [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]


def test_visibility_unit_contrast_at_matched_bias():
    for g2 in (2.0, 3.0, 4.0, 5.0):
        scan = visibility_experiment([g2])[0]
        assert scan.bias_ratio == g2
        assert scan.fit.visibility == pytest.approx(1.0, abs=1e-9)
        assert scan.classical_bound == pytest.approx(1 / math.sqrt(g2), rel=1e-12)


def test_visibility_unbiased_input_dilutes_contrast():
    scan = visibility_experiment([4.0], bias_ratio=1.0)[0]
    # amplitudes 1 and g' interfere: contrast 2 g' / (1 + g'^2) = 0.8 at g' = 2
    assert scan.fit.visibility == pytest.approx(0.8, abs=1e-6)


def test_visibility_rejects_negative_bias():
    with pytest.raises(ValueError, match="bias_ratio"):
        visibility_experiment([2.0], bias_ratio=-1.0)
    assert visibility_experiment([2.0], bias_ratio=0.0)[0].fit.visibility == \
        pytest.approx(0.0, abs=1e-12)


def test_visibility_without_counts_raises():
    # 1000 shots at unit rate scale draw no count at all: the fit offset is 0
    counting = CountingModel(shots=1000, seed=1)
    with pytest.raises(ZeroDivisionError, match="offset"):
        visibility_experiment([2.0], counting=counting)


def test_visibility_fit_error_names_the_gain():
    # the fringe rates of so small an input underflow to 0
    with pytest.raises(ZeroDivisionError, match="not positive at gain 2.5$"):
        visibility_experiment([2.5], input_mag=1e-200)


def test_counted_visibility_draws_scan_k_from_stream_k():
    counting = CountingModel(shots=10**7, seed=12, rate_scale=1e4)
    scans = visibility_experiment([2.0, 3.0], counting=counting)
    assert [scan.nominal_g2 for scan in scans] == [2.0, 3.0]
    for k, scan in enumerate(scans):
        counts = simulate_counts(scan.rates, counting, stream=k)
        assert scan.counts == counts.tolist()
    stream0 = simulate_counts(scans[1].rates, counting, stream=0)
    assert scans[1].counts != stream0.tolist()


def test_visibility_bound_rejects_attenuation():
    with pytest.raises(ValueError):
        classical_visibility_bound(0.5)


def test_visibility_fit_recovers_sampled_fringe():
    counting = CountingModel(shots=10**7, seed=12, rate_scale=1e4)
    scan = visibility_experiment([3.0], counting=counting)[0]
    assert scan.counts is not None
    assert scan.fit.uncertainty > 0
    assert abs(scan.fit.visibility - 1.0) < 5 * scan.fit.uncertainty + 1e-3
    clean = visibility_experiment([3.0])[0]
    assert abs(scan.fit.visibility - clean.fit.visibility) < 0.05


def test_visibility_ppbs_gate_matches_ideal_contrast():
    scan = visibility_experiment([3.0], gate="ppbs")[0]
    assert scan.fit.visibility == pytest.approx(1.0, abs=1e-9)
