"""Acceptance suite: eleven end-to-end checks with fixed tolerances.

Each check is marked `acceptance`; the terminal summary prints one
pass/fail line per criterion.  Numbered names keep the report ordered.
"""

import math
import time

import numpy as np
import pytest

import oracles
from nla_weaksim.cli import main
from nla_weaksim.elements import DEFAULT_LAYOUT
from nla_weaksim.experiment import (
    CountingModel,
    HeraldingModel,
    classical_visibility_bound,
    gain_sweep,
    gain_vs_phi,
    measure_input_size,
    state_size,
    visibility_experiment,
)
from nla_weaksim.fock import ModeTransform, build_basis, lift_mode_transform
from nla_weaksim.protocol import (
    MeterSetting,
    SignalSpec,
    analytic,
    gate_operator,
    phi_for_gain,
    run_nla,
)

pytestmark = pytest.mark.acceptance

PHI_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3]

# reported bench visibilities at nominal gains 2, 3, 4, 5 with their quoted
# uncertainty; stored here as reference constants for the inequality check
REPORTED_VISIBILITIES = [0.94, 0.99, 1.00, 0.95]
REPORTED_VISIBILITY_ERROR = 0.02


def _qubit_index(basis, signal_mode, meter_mode):
    occ = [0, 0, 0, 0]
    occ[basis.position(signal_mode)] = 1
    occ[basis.position(meter_mode)] = 1
    return basis.index_of(tuple(occ))


def test_c01_postselected_circuit_equals_scaled_cz():
    start = time.perf_counter()
    basis = build_basis(4, 2)
    op = gate_operator("ppbs", 2)
    lay = DEFAULT_LAYOUT
    states = [
        _qubit_index(basis, s, m)
        for s in (lay.signal_h, lay.signal_v)
        for m in (lay.meter_h, lay.meter_v)
    ]
    block = op[np.ix_(states, states)]
    expect = np.diag([1.0, 1.0, 1.0, -1.0]) / 3.0
    assert np.max(np.abs(block - expect)) < 1e-12
    for col in range(4):
        success = np.sum(np.abs(block[:, col]) ** 2)
        assert success == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_c02_measured_gain_follows_cotangent_law():
    start = time.perf_counter()
    a2 = 1e-6
    spec = SignalSpec("coherent", math.sqrt(a2))
    measured_in = measure_input_size(spec, "ppbs")
    for phi in PHI_GRID:
        out = run_nla(spec, MeterSetting(phi), "ppbs")
        gain = state_size(out.conditional_state, DEFAULT_LAYOUT.signal_v) \
            / measured_in
        want = 1.0 / math.tan(phi / 2.0) ** 2
        assert gain == pytest.approx(want, rel=1e-9)
        if phi == math.pi / 3:
            assert gain == pytest.approx(3.0, rel=1e-9)
        if phi == math.pi / 2:
            assert gain == pytest.approx(1.0, rel=1e-9)
    assert time.perf_counter() - start < 10.0


def test_c03_output_scaling_against_true_input():
    a2 = 1e-6
    spec = SignalSpec("coherent", math.sqrt(a2))
    true_in = oracles.true_input_size(spec)
    for phi in PHI_GRID:
        out = run_nla(spec, MeterSetting(phi), "ppbs")
        ratio = state_size(out.conditional_state, DEFAULT_LAYOUT.signal_v) \
            / true_in
        want = (1.0 / 3.0) / math.tan(phi / 2.0) ** 2
        assert ratio == pytest.approx(want, rel=1e-9)


def test_c04_herald_probability_closed_form():
    for phi in PHI_GRID:
        pred0 = analytic(phi, 0.0)
        assert 1.0 / (1.0 + 3.0 * pred0.g2_nondet) == pytest.approx(
            math.sin(phi / 2.0) ** 2, abs=1e-12
        )
        for a2 in (1e-5, 1e-4, 1e-3):
            alpha = math.sqrt(a2)
            out = run_nla(SignalSpec("qubit_truncated", alpha), MeterSetting(phi))
            assert out.herald_probability == pytest.approx(
                analytic(phi, alpha).p_success, rel=1e-6
            )


def test_c05_through_gate_reference_scaling():
    for a2 in (1e-5, 1e-4, 1e-3):
        spec = SignalSpec("coherent", math.sqrt(a2))
        true_in = oracles.true_input_size(spec)
        assert true_in <= 1e-3 * 1.001
        assert measure_input_size(spec, "ppbs") == pytest.approx(
            true_in / 3.0, rel=1e-6
        )


def test_c06_linear_gain_at_small_inputs():
    inputs = [10 ** (-5 + 2 * i / 12) for i in range(13)]
    herald = HeraldingModel(epsilon=0.35)
    for g2 in (math.sqrt(4.5), 3.0, 6.0):
        res = gain_sweep([g2], inputs, herald=herald)
        ci = {c: i for i, c in enumerate(res.columns)}
        x = np.array([row[ci["input_measured"]] for row in res.rows])
        y = np.array([row[ci["output_ideal"]] for row in res.rows])
        slope, intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(g2, rel=0.01)
        fitted = slope * x + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.9999
        model = np.array([row[ci["output_model"]] for row in res.rows])
        assert np.all(np.diff(model) > 0)
        assert np.all(model <= herald.epsilon)
        small = y < 0.01 * herald.epsilon
        assert np.all(np.abs(model[small] - y[small]) / y[small] < 0.01)


def test_c07_saturation_orders_maximal_gain_by_input():
    phis = [0.1 + 3.0 * i / 30 for i in range(31)]
    herald = HeraldingModel(epsilon=0.35)
    maxima = {}
    for size in (0.0006, 0.0012):
        res = gain_vs_phi([size], phis, herald=herald)
        ci = {c: i for i, c in enumerate(res.columns)}
        gains = [
            row[ci["output_model"]] / row[ci["input_measured"]]
            for row in res.rows
        ]
        maxima[size] = max(gains)
    assert maxima[0.0012] < maxima[0.0006]


def test_c08_visibility_and_classical_bounds():
    gains = [2.0, 3.0, 4.0, 5.0]
    bounds = []
    for g2 in gains:
        scan = visibility_experiment([g2], input_mag=0.0015, gate="ideal")[0]
        assert scan.fit.visibility == pytest.approx(1.0, abs=1e-6)
        bounds.append(scan.classical_bound)
    assert [round(b, 2) for b in bounds] == [0.71, 0.58, 0.50, 0.45]
    for reported, bound in zip(REPORTED_VISIBILITIES, bounds):
        assert reported - REPORTED_VISIBILITY_ERROR > bound


def test_c09_phase_insensitivity_and_mixture_equivalence():
    alpha = 0.02
    phi = 1.1
    base = run_nla(SignalSpec("coherent", alpha), MeterSetting(phi))
    for theta in (0.0, 0.7, math.pi / 2, 2.1, math.pi, 4.5):
        rot = run_nla(
            SignalSpec("coherent", alpha * np.exp(1j * theta)), MeterSetting(phi)
        )
        assert rot.herald_probability == pytest.approx(
            base.herald_probability, abs=1e-12
        )
        assert rot.p1_out == pytest.approx(base.p1_out, abs=1e-12)
    mixed = run_nla(SignalSpec("phase_averaged", alpha), MeterSetting(phi))
    n_grid = 8
    heralds = []
    weighted_p1 = []
    for k in range(n_grid):
        theta = 2 * math.pi * k / n_grid
        out = run_nla(
            SignalSpec("coherent", alpha * np.exp(1j * theta)), MeterSetting(phi)
        )
        heralds.append(out.herald_probability)
        weighted_p1.append(out.p1_out * out.herald_probability)
    assert mixed.herald_probability == pytest.approx(
        math.fsum(heralds) / n_grid, rel=1e-9
    )
    assert mixed.p1_out * mixed.herald_probability == pytest.approx(
        math.fsum(weighted_p1) / n_grid, rel=1e-9
    )


def test_c10_counting_reproducibility_and_error_growth(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gain-sweep", "--gains", "3", "--inputs", "1e-5:1e-4:log5",
            "--shots", "1000000000", "--seed", "20260814",
            "--rate-scale", "100"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    counting = CountingModel(shots=10**9, seed=20260814, rate_scale=1e3)
    phis = [0.3, 0.6, 1.0, 1.5, 2.2, 3.0]
    res = gain_vs_phi([1e-4], phis, counting=counting)
    ci = {c: i for i, c in enumerate(res.columns)}
    errors = [row[ci["gain_error"]] for row in res.rows]
    assert all(not math.isnan(e) for e in errors)
    # statistical gain error grows toward small phases at fixed shots
    for earlier, later in zip(errors, errors[1:]):
        assert earlier > later


def test_c11_lifting_matches_brute_force_expansion():
    rng = np.random.default_rng(1234)
    checked = 0
    worst = 0.0
    while checked < 100:
        for m in (1, 2, 3):
            for cap in (1, 2, 3):
                u = oracles.haar_unitary(m, rng)
                basis = build_basis(m, cap)
                lifted = lift_mode_transform(
                    ModeTransform(u, tuple(range(m))), basis
                )
                for j, occ in enumerate(basis.occupations):
                    expect = oracles.expand_transform(u, occ)
                    col = np.zeros(basis.size, dtype=complex)
                    for occ_out, amp in expect.items():
                        col[basis.index_of(occ_out)] = amp
                    worst = max(worst, float(np.max(np.abs(lifted[:, j] - col))))
                checked += 1
    assert worst < 1e-10
