"""Independent brute-force routes used to pin expected values in the tests.

Most of what is here works on plain dicts mapping occupation tuples to
complex amplitudes and deliberately avoids the package's permanent-based code
paths, so the two implementations can be compared against each other.  The
last section holds the loop-based routes that only tests need: splitters and
waveplates as mode transforms, partial traces, a density-matrix check,
loss as an explicit Kraus sum and the pair-loop tensor product of pure
states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from nla_weaksim.elements import DEFAULT_LAYOUT, ModeLayout
from nla_weaksim.fock import (
    DensityOperator,
    FockBasis,
    ModeTransform,
    StateVector,
    build_basis,
)


def expand_transform(matrix, occ_in):
    """Map |occ_in> through a linear mode transform by raw operator algebra.

    Each input creation operator is replaced by its image under the matrix
    (column j feeds mode j) and the product is expanded term by term.
    Returns {occupation: amplitude}.
    """
    m = len(occ_in)
    terms = {tuple([0] * m): 1.0 + 0.0j}
    for j, n_j in enumerate(occ_in):
        for _ in range(n_j):
            new: dict = {}
            for occ, amp in terms.items():
                for i in range(m):
                    u = matrix[i][j]
                    if u == 0:
                        continue
                    lifted = list(occ)
                    lifted[i] += 1
                    contrib = amp * u * math.sqrt(lifted[i])
                    key = tuple(lifted)
                    new[key] = new.get(key, 0.0) + contrib
            terms = new
    norm = math.sqrt(math.prod(math.factorial(n) for n in occ_in))
    return {occ: amp / norm for occ, amp in terms.items() if amp != 0}


def transform_state(matrix, state):
    """Push a {occupation: amplitude} state through a mode transform."""
    out: dict = {}
    for occ, amp in state.items():
        for occ2, amp2 in expand_transform(matrix, occ).items():
            out[occ2] = out.get(occ2, 0.0) + amp * amp2
    return out


def coherent_amps(alpha, cap):
    """Truncated coherent amplitudes exp(-|a|^2/2) a^n/sqrt(n!), n <= cap."""
    pref = math.exp(-abs(alpha) ** 2 / 2.0)
    return [pref * alpha**n / math.sqrt(math.factorial(n)) for n in range(cap + 1)]


def poisson_tail(mean, cap, terms=80):
    """Probability weight of n > cap for a Poisson distribution."""
    return math.fsum(
        math.exp(-mean) * mean**n / math.factorial(n)
        for n in range(cap + 1, cap + 1 + terms)
    )


def quadrature_phase_average(alpha, cap, n_theta=64):
    """Average |a e^{i t}><a e^{i t}| over t with a uniform grid.

    A uniform grid is exact for trigonometric polynomials of degree < n_theta,
    which covers every matrix element of the truncated projector.
    """
    acc = np.zeros((cap + 1, cap + 1), dtype=complex)
    for k in range(n_theta):
        theta = 2.0 * math.pi * k / n_theta
        v = np.array(coherent_amps(alpha * cmath.exp(1j * theta), cap))
        acc += np.outer(v, v.conj())
    return acc / n_theta


def loss_via_ancilla(pops, loss, cap):
    """Single-mode loss by coupling to a vacuum ancilla and tracing it out.

    pops: diagonal weights of the input (n <= cap). Returns output diagonal.
    Valid for diagonal inputs, which is all the tests need.
    """
    t = math.sqrt(1.0 - loss)
    r = math.sqrt(loss)
    bs = [[t, r], [-r, t]]
    out = [0.0] * (cap + 1)
    for n, w in enumerate(pops):
        if w == 0:
            continue
        branches = expand_transform(bs, (n, 0))
        for (n_keep, _n_anc), amp in branches.items():
            out[n_keep] += w * abs(amp) ** 2
    return out


def loss_output(amps, transmission):
    """Closed-form density matrix of a pure single-mode state after loss.

    rho[m, n] = sum_k sqrt(C(m+k, k) C(n+k, k)) T^((m+n)/2) (1-T)^k
    a_{m+k} conj(a_{n+k}), written in the transmission T itself so that a
    tiny T keeps its precision.
    """
    amps = np.asarray(amps, dtype=complex)
    dim = len(amps)
    rho = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            for k in range(dim - max(m, n)):
                weight = math.sqrt(math.comb(m + k, k) * math.comb(n + k, k))
                weight *= math.sqrt(transmission) ** (m + n) * (1.0 - transmission) ** k
                rho[m, n] += weight * amps[m + k] * np.conj(amps[n + k])
    return rho


def haar_unitary(n, rng):
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# A dict-based end-to-end run of the heralded amplifier, independent of the
# package's basis/lift machinery.  Modes are ordered (s_H, s_V, m_H, m_V).
# ---------------------------------------------------------------------------

def _bs2(t_amp):
    """2x2 rotation-form splitter with transmission amplitude t_amp."""
    r_amp = math.sqrt(max(0.0, 1.0 - t_amp**2))
    return [[t_amp, r_amp], [-r_amp, t_amp]]


def ppbs_circuit_matrix():
    """Conditional 4x4 matrix of the three-splitter controlled-sign circuit.

    H components of both arms are attenuated by 1/sqrt(3) (discard ports held
    at vacuum); the V components interfere on a T=1/3 splitter.
    """
    t = math.sqrt(1.0 / 3.0)
    m = np.eye(4, dtype=complex)
    m[0, 0] = t
    m[2, 2] = t
    v = _bs2(t)
    m[1, 1] = v[0][0]
    m[1, 3] = v[0][1]
    m[3, 1] = v[1][0]
    m[3, 3] = v[1][1]
    return m


def herald_diagonals(gate, cap):
    """Closed-form K_HH and K_VV of a gate on the signal basis at the cap.

    Entries follow build_basis(2, cap), whose occupations are (n_H, n_V)
    for signal H below signal V.  Postselected gate, tau^2 = 1/3 and
    rho^2 = 2/3: K_HH = 3^{-(1 + n_H + n_V)/2} and
    K_VV = 3^{-n_H/2} tau^{n_V - 1} (tau^2 - n_V rho^2).  Ideal gate:
    K_HH = 1 and K_VV = 1 - 2 [n_V = 1].  States at the cap have no room for
    the meter photon, so both are 0 there.
    """
    tau, rho2 = math.sqrt(1.0 / 3.0), 2.0 / 3.0
    k_hh, k_vv = [], []
    for n_h, n_v in build_basis(2, cap).occupations:
        if n_h + n_v == cap:
            hh = vv = 0.0
        elif gate == "ppbs":
            hh = 3.0 ** (-(1 + n_h + n_v) / 2)
            vv = 3.0 ** (-n_h / 2) * tau ** (n_v - 1) * (tau**2 - n_v * rho2)
        elif gate == "ideal":
            hh, vv = 1.0, (-1.0 if n_v == 1 else 1.0)
        else:
            raise ValueError(f"unknown gate {gate!r}")
        k_hh.append(hh)
        k_vv.append(vv)
    return np.array(k_hh, dtype=complex), np.array(k_vv, dtype=complex)


def ideal_cz(basis: FockBasis, *, layout: ModeLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Diagonal gate flipping the sign of exactly the components with one
    signal V photon and the meter photon in V."""
    flip = (
        (basis.counts(layout.signal_v) == 1)
        & (basis.counts(layout.meter_h) == 0)
        & (basis.counts(layout.meter_v) == 1)
    )
    return np.diag(np.where(flip, -1.0, 1.0).astype(complex))


def apply_ideal_cz(state):
    """Sign flip on components with one s_V photon and meter exactly (0,1)."""
    return {
        occ: (-amp if occ[1] == 1 and occ[2] == 0 and occ[3] == 1 else amp)
        for occ, amp in state.items()
    }


def joint_input(signal_amps, phi, cap):
    """(signal on s_V) x meter photon (|H>+ie^{i phi}|V>)/sqrt(2), total <= cap."""
    out: dict = {}
    for n, a in enumerate(signal_amps):
        for meter_occ, m_amp in (((1, 0), 1 / math.sqrt(2)),
                                 ((0, 1), 1j * cmath.exp(1j * phi) / math.sqrt(2))):
            if n + 1 > cap:
                continue
            out[(0, n) + meter_occ] = a * m_amp
    return out


def herald(state):
    """Project the meter pair onto (|H> - i|V>)/sqrt(2).

    Returns (conditional signal dict over (n_sH, n_sV), herald probability).
    Meter components outside the one-photon sector never match the bra and
    therefore count as failures.
    """
    bra = {(1, 0): 1 / math.sqrt(2), (0, 1): -1j / math.sqrt(2)}
    cond: dict = {}
    for occ, amp in state.items():
        meter = occ[2:]
        if meter in bra:
            key = occ[:2]
            cond[key] = cond.get(key, 0.0) + bra[meter].conjugate() * amp
    prob = math.fsum(abs(a) ** 2 for a in cond.values())
    return cond, prob


def run_reference(signal_amps, phi, gate, cap=3):
    """End-to-end dict-based reference run. gate: 'ideal' or 'ppbs'."""
    joint = joint_input(signal_amps, phi, cap)
    if gate == "ideal":
        evolved = apply_ideal_cz(joint)
    else:
        evolved = transform_state(ppbs_circuit_matrix(), joint)
    return herald(evolved)


# ---------------------------------------------------------------------------
# Loop-based routes on the package's types, used only as test references.
# ---------------------------------------------------------------------------

def beamsplitter(t, modes):
    """Two-mode splitter [[sqrt(t), sqrt(1-t)], [-sqrt(1-t), sqrt(t)]]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission {t} outside [0, 1]")
    ta, ra = math.sqrt(t), math.sqrt(1.0 - t)
    return ModeTransform(np.array([[ta, ra], [-ra, ta]], dtype=complex), modes)


@dataclass(frozen=True)
class WaveplateSetting:
    kind: str  # "hwp" | "qwp"
    angle: float  # fast-axis angle, radians

    def __post_init__(self):
        if self.kind not in ("hwp", "qwp"):
            raise ValueError(f"unknown waveplate kind {self.kind!r}")


def hwp(angle, spatial):
    """Half-wave plate at fast-axis angle; hwp(0) leaves |H> unchanged."""
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return ModeTransform(np.array([[c, s], [s, -c]], dtype=complex), spatial)


def qwp(angle, spatial):
    """Quarter-wave plate: rotation-conjugated diag(1, i)."""
    c = math.cos(angle)
    s = math.sin(angle)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    return ModeTransform(r @ np.diag([1.0, 1.0j]) @ r.T, spatial)


def meter_waveplate_angles(phi):
    """Waveplate pair preparing (|H> + i e^{i phi} |V>)/sqrt(2) from |H>.

    With the quarter-wave plate fixed at pi/4 the two output components keep
    equal magnitude for any half-wave angle, and the relative phase closes at
    hwp angle pi/4 + phi/4.
    """
    h = (math.pi / 4.0 + phi / 4.0) % math.pi
    return WaveplateSetting("hwp", h), WaveplateSetting("qwp", math.pi / 4.0)


def partial_trace(state, trace_modes):
    """Trace out the given modes; always returns a density operator.

    Tracing every mode leaves the zero-mode basis, i.e. a 1x1 operator whose
    entry is the trace of the input.
    """
    rho = state.to_density() if isinstance(state, StateVector) else state
    trace_modes = tuple(trace_modes)
    sb = rho.basis
    for m in trace_modes:
        sb.position(m)  # raises on unknown modes
    rest_modes = tuple(m for m in sb.modes if m not in trace_modes)
    rest = build_basis(len(rest_modes), sb.photon_cap, modes=rest_modes)
    tpos = [sb.position(m) for m in trace_modes]
    rpos = [sb.position(m) for m in rest_modes]
    groups: dict = {}
    for jidx, occ in enumerate(sb.occupations):
        tocc = tuple(occ[p] for p in tpos)
        ridx = rest.index_of(tuple(occ[p] for p in rpos))
        groups.setdefault(tocc, []).append((jidx, ridx))
    out = np.zeros((rest.size, rest.size), dtype=complex)
    for pairs in groups.values():
        js = [j for j, _ in pairs]
        rs = [r for _, r in pairs]
        out[np.ix_(rs, rs)] += rho.matrix[np.ix_(js, js)]
    return DensityOperator(rest, out)


def validate_density(rho, atol=1e-10):
    """Raise unless the density matrix is Hermitian and positive within atol."""
    if not np.allclose(rho.matrix, rho.matrix.conj().T, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(rho.matrix)
    if eigs.min() < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")


def loss_kraus(loss, mode, basis):
    """Kraus set of photon loss on one mode: K_k removes k photons,
    sum K^dag K = identity."""
    pos = basis.position(mode)
    t = 1.0 - loss
    ops = []
    for k in range(basis.photon_cap + 1):
        m = np.zeros((basis.size, basis.size))
        filled = False
        for i, occ in enumerate(basis.occupations):
            n = occ[pos]
            if n < k:
                continue
            coeff = math.comb(n, k) * t ** (n - k) * loss**k
            if coeff == 0.0:
                continue
            out = list(occ)
            out[pos] = n - k
            m[basis.index_of(tuple(out)), i] = math.sqrt(coeff)
            filled = True
        if filled:
            ops.append(m)
    return ops


def loss_kraus_sum(loss, mode, state):
    """Density matrix after loss as the Kraus sum sum_k K rho K^T."""
    rho = state.to_density() if isinstance(state, StateVector) else state
    out = np.zeros_like(rho.matrix)
    for k in loss_kraus(loss, mode, rho.basis):
        out = out + k @ rho.matrix @ k.T
    return out


class ModeOverlapError(ValueError):
    """Tensor factors share one or more modes."""


def tensor(
    a: StateVector,
    b: StateVector,
    photon_cap: int | None = None,
) -> tuple[StateVector, float]:
    """Join pure states on disjoint mode sets; returns (state, discarded weight).

    With the default cap (sum of the factor caps) nothing is discarded; a
    tighter cap drops the over-cap components and reports their probability
    weight instead of failing silently.
    """
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise TypeError(
            f"tensor joins pure states (StateVector), got "
            f"{type(a).__name__} and {type(b).__name__}"
        )
    ba, bb = a.basis, b.basis
    if set(ba.modes) & set(bb.modes):
        raise ModeOverlapError(f"modes overlap: {ba.modes} vs {bb.modes}")
    cap = ba.photon_cap + bb.photon_cap if photon_cap is None else photon_cap
    modes = tuple(sorted(ba.modes + bb.modes))
    basis = build_basis(len(modes), cap, modes=modes)
    pos_a = [modes.index(m) for m in ba.modes]
    pos_b = [modes.index(m) for m in bb.modes]
    amps = np.zeros(basis.size, dtype=complex)
    discarded = 0.0
    for i, occ_a in enumerate(ba.occupations):
        va = a.amplitudes[i]
        if va == 0:
            continue
        for j, occ_b in enumerate(bb.occupations):
            vb = b.amplitudes[j]
            if vb == 0:
                continue
            if sum(occ_a) + sum(occ_b) <= cap:
                occ = [0] * len(modes)
                for p, n in zip(pos_a, occ_a):
                    occ[p] = n
                for p, n in zip(pos_b, occ_b):
                    occ[p] = n
                amps[basis.index_of(tuple(occ))] = va * vb
            else:
                discarded += abs(va * vb) ** 2
    return StateVector(basis, amps), discarded
