"""Independent brute-force routes used to pin expected values in the tests.

Most of what is here works on plain dicts mapping occupation tuples to
complex amplitudes and deliberately avoids the package's permanent-based
code paths, so the two implementations can be compared against each other.
The last section holds the loop-based routes that only tests need:
splitters, partially polarizing splitters, vacuum restrictions and
waveplates as mode transforms, their composition into one transform (the
postselected gate's circuit, which production writes in closed form), the
dense density matrix of a state, partial traces, a density-matrix check,
loss as an explicit Kraus sum (and a lossy signal built with it), the
pair-loop tensor product of pure states, the pair products of two ladders
formed from their float parts, the weight of two Poisson ladders outside the
two-mode triangle, the true input size of a signal spec, and a run's numbers
read from np.bincount marginals.  The closed-form herald entries also give
the herald probability of a Poisson signal with no cap.  Density matrices
here are plain arrays over a basis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from nla_weaksim.elements import DEFAULT_LAYOUT, ModeLayout
from nla_weaksim.experiment import state_size
from nla_weaksim.fock import (
    FockBasis,
    ModeTransform,
    State,
    build_basis,
    mode_marginal,
)
from nla_weaksim.protocol import (
    DEFAULT_PHOTON_CAP,
    herald_operators,
    prepare_signal,
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


def herald_entries(gate, n_h, n_v):
    """Closed-form K_HH and K_VV of a gate at the signal occupation
    (n_H, n_V), with no cap.

    Postselected gate, tau^2 = 1/3 and rho^2 = 2/3:
    K_HH = 3^{-(1 + n_H + n_V)/2} and
    K_VV = 3^{-n_H/2} tau^{n_V - 1} (tau^2 - n_V rho^2).  Ideal gate:
    K_HH = 1 and K_VV = 1 - 2 [n_V = 1].
    """
    if gate == "ppbs":
        tau, rho2 = math.sqrt(1.0 / 3.0), 2.0 / 3.0
        return (3.0 ** (-(1 + n_h + n_v) / 2),
                3.0 ** (-n_h / 2) * tau ** (n_v - 1) * (tau**2 - n_v * rho2))
    if gate == "ideal":
        return 1.0, (-1.0 if n_v == 1 else 1.0)
    raise ValueError(f"unknown gate {gate!r}")


def herald_diagonals(gate, cap):
    """Closed-form K_HH and K_VV of a gate on the signal basis at the cap.

    Entries follow build_basis(2, cap), whose occupations are (n_H, n_V)
    for signal H below signal V (see herald_entries).  States at the cap
    have no room for the meter photon, so both are 0 there.
    """
    k_hh, k_vv = [], []
    for n_h, n_v in build_basis(2, cap).occupations:
        hh, vv = (0.0, 0.0) if n_h + n_v == cap else herald_entries(gate, n_h, n_v)
        k_hh.append(hh)
        k_vv.append(vv)
    return np.array(k_hh, dtype=complex), np.array(k_vv, dtype=complex)


def herald_probability_uncapped(gate, mean, phi):
    """Herald probability of a signal on signal V with Poisson photon
    numbers of the given mean, coherent or phase-averaged alike, with no
    cap: sum_n Poisson(n; mean) |(K_HH(0, n) - e^{i phi} K_VV(0, n))/2|^2.

    Each Poisson weight comes from its logarithm through lgamma, and the
    sum runs until the weights, falling past the mean, are below 1e-30.
    """
    w = cmath.exp(1.0j * phi)
    terms, n = [], 0
    while True:
        weight = math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
        hh, vv = herald_entries(gate, 0, n)
        terms.append(weight * abs((hh - w * vv) / 2.0) ** 2)
        if n > mean and weight < 1e-30:
            return math.fsum(terms)
        n += 1


def ppbs_cz_elements(layout: ModeLayout) -> list[ModeTransform]:
    """The postselected controlled-sign circuit placed on the modes of any
    layout, the discard ports of its two arms on the next four modes above
    them: an H-splitting PPBS in each arm and a V-splitting one between the
    arms, each of transmission 1/3 on the split polarization."""
    top = max(layout.modes())
    aux_sig, aux_met = (top + 1, top + 2), (top + 3, top + 4)
    t = 1.0 / 3.0
    return [
        vacuum_restriction(ppbs(t, 1.0, layout.signal, aux_sig), aux_sig),
        ppbs(1.0, t, layout.signal, layout.meter),
        vacuum_restriction(ppbs(t, 1.0, layout.meter, aux_met), aux_met),
    ]


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


def compose_transforms(transforms):
    """Single transform equivalent to applying the list in order.

    The lift is a homomorphism, so composing matrices first and lifting once
    equals lifting each element and multiplying the Fock operators.
    """
    transforms = list(transforms)
    if not transforms:
        raise ValueError("nothing to compose")
    modes = tuple(sorted(set().union(*(t.modes for t in transforms))))
    full = np.eye(len(modes), dtype=complex)
    for t in transforms:
        full = t.embed(modes) @ full
    kind = "unitary" if all(t.kind == "unitary" for t in transforms) else "subunitary"
    return ModeTransform(full, modes, kind)


def ppbs(t_h, t_v, a, b):
    """Partially polarizing splitter between two (H, V) spatial paths.

    Block diagonal: a splitter of intensity transmission t_h on the H pair
    and one of t_v on the V pair (see beamsplitter, which rejects a
    transmission outside [0, 1]).  (1, 1) is the identity.
    """
    m = np.eye(4, dtype=complex)
    for t, pair in ((t_h, [0, 2]), (t_v, [1, 3])):
        m[np.ix_(pair, pair)] = beamsplitter(t, (0, 1)).matrix
    return ModeTransform(m, (a[0], a[1], b[0], b[1]))


def vacuum_restriction(t, drop):
    """Postselect unused ports on vacuum by deleting their rows and columns.

    Valid when the dropped input ports carry vacuum and their outputs are
    conditioned empty; the lifted restricted matrix then equals
    <0_drop| U |0_drop> exactly.  The result is flagged subunitary.
    """
    keep = [i for i, m in enumerate(t.modes) if m not in drop]
    if len(keep) == len(t.modes):
        return t
    sub = t.matrix[np.ix_(keep, keep)]
    return ModeTransform(sub, tuple(t.modes[i] for i in keep), kind="subunitary")


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


def dense(state):
    """Density matrix |psi><psi| + diag(p) of a state, as one array."""
    psi = state.amplitudes
    return np.outer(psi, psi.conj()) + np.diag(state.populations)


def partial_trace(state, trace_modes):
    """Trace out the given modes; returns the basis of the rest and its
    density matrix.

    Tracing every mode leaves the zero-mode basis, i.e. a 1x1 matrix whose
    entry is the trace of the input.
    """
    rho = dense(state)
    trace_modes = tuple(trace_modes)
    sb = state.basis
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
        out[np.ix_(rs, rs)] += rho[np.ix_(js, js)]
    return rest, out


def validate_density(rho, atol=1e-10):
    """Raise unless the density matrix is Hermitian and positive within atol."""
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(rho)
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


def loss_kraus_sum(loss, mode, basis, rho):
    """Density matrix rho over the basis after loss, as the Kraus sum
    sum_k K rho K^T."""
    out = np.zeros_like(rho)
    for k in loss_kraus(loss, mode, basis):
        out = out + k @ rho @ k.T
    return out


def lossy_signal(kind, alpha, loss, cap, long_cap=40):
    """A signal of the given kind on signal V, taken through loss as the
    Kraus sum on a ladder to long_cap and only then cut to the signal basis
    at the cap (signal H empty).  Returns the density matrix.

    Pre-loss ladders: the coherent amplitudes, the Poisson weights of the
    phase-averaged mixture, and N(|0> + alpha|1>) with N = exp(-|a|^2/2)
    for 'qubit_truncated'.
    """
    ladder = build_basis(1, long_cap, modes=(DEFAULT_LAYOUT.signal_v,))
    if kind == "phase_averaged":
        mean = abs(alpha) ** 2
        pops = [math.exp(-mean) * mean**n / math.factorial(n)
                for n in range(long_cap + 1)]
        rho = np.diag(pops).astype(complex)
    else:
        amps = np.zeros(long_cap + 1, dtype=complex)
        if kind == "coherent":
            amps[:] = coherent_amps(alpha, long_cap)
        else:
            amps[:2] = math.exp(-abs(alpha) ** 2 / 2.0) * np.array([1.0, alpha])
        rho = np.outer(amps, amps.conj())
    rho = loss_kraus_sum(loss, DEFAULT_LAYOUT.signal_v, ladder, rho)
    basis = build_basis(2, cap)
    keep = [basis.index_of((0, n)) for n in range(cap + 1)]
    out = np.zeros((basis.size, basis.size), dtype=complex)
    out[np.ix_(keep, keep)] = rho[:cap + 1, :cap + 1]
    return out


class ModeOverlapError(ValueError):
    """Tensor factors share one or more modes."""


def tensor(
    a: State,
    b: State,
    photon_cap: int | None = None,
) -> tuple[State, float]:
    """Join pure states on disjoint mode sets; returns (state, discarded weight).

    With the default cap (sum of the factor caps) nothing is discarded; a
    tighter cap drops the over-cap components and reports their probability
    weight instead of failing silently.
    """
    if a.populations.any() or b.populations.any():
        raise ValueError("tensor joins pure states (no populations)")
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
    return State(basis, amps), discarded


def pair_products(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The products h[i] v[j], formed from the float parts, +0 where a
    factor is 0.

    This rounds as a scalar complex product does; numpy's array product,
    which the two-mode input takes, can differ from it in the last bit.
    """
    hr, hi = h.real[:, None], h.imag[:, None]
    out = np.empty((h.size, v.size), dtype=complex)
    out.real = hr * v.real - hi * v.imag
    out.imag = hr * v.imag + hi * v.real
    out[(h == 0)[:, None] | (v == 0)] = 0
    return out


def true_input_size(signal, *, photon_cap=DEFAULT_PHOTON_CAP):
    """Signal V odds P(1)/P(0) of the signal as prepared, before the gate."""
    state, _ = prepare_signal(signal, photon_cap)
    return state_size(state, DEFAULT_LAYOUT.signal_v)


def poisson_weight(mean, n):
    """Poisson(n; mean) in logs, so no power or factorial overflows."""
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def two_mode_weight_outside(alpha_h, alpha_v, cap, long_cap=120):
    """Weight of the pairs (i, j) with i + j > cap of two coherent ladders,
    sum |h_i|^2 |v_j|^2 term by term over i, j up to long_cap."""
    wh = [poisson_weight(abs(alpha_h) ** 2, n) for n in range(long_cap + 1)]
    wv = [poisson_weight(abs(alpha_v) ** 2, n) for n in range(long_cap + 1)]
    return math.fsum(a * b for i, a in enumerate(wh) for j, b in enumerate(wv)
                     if i + j > cap)


def weight_at_cap(state):
    """Weight of the basis states whose total is the cap, gathered."""
    return float(state.weights()[state.basis.at_cap()].sum())


def _odds(dist):
    return float(dist[1]) / float(dist[0]) if dist[0] > 0.0 else None


def marginal_input(gate, state, beyond=0.0):
    """Truncation weight and input sizes, true and through the gate, of a
    signal on the herald basis, from np.bincount marginals of signal V: of
    its weights, and of them times |K_HH|^2."""
    basis, k_hh, _ = herald_operators(gate, state.basis.photon_cap)
    weights = state.weights()
    mode = DEFAULT_LAYOUT.signal_v
    return (beyond + weight_at_cap(state),
            _odds(mode_marginal(basis, weights, mode)),
            _odds(mode_marginal(basis, np.abs(k_hh) ** 2 * weights, mode)))


def marginal_output(state, mode=DEFAULT_LAYOUT.signal_v):
    """p1_out and size_out of a conditional state, from the np.bincount
    marginal of its signal V mode."""
    dist = mode_marginal(state.basis, state.weights(), mode)
    return float(dist[1]), _odds(dist)
