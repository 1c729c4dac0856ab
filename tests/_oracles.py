"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written by a different route than the
package code: transcendental equations solved by bisection, integrals by
trapezoid quadrature, few-photon amplitudes by matrix permanents, 2D modes
on the full grid with scipy's own shift-invert, mirror-half operators
assembled as sparse Kronecker sums, the spectra and mode counts of layered
maps from their separable form, and least-squares fits by MINPACK's
Levenberg-Marquardt through scipy.  Tests freeze the numbers these
produce; the package must then reproduce them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import least_squares
from scipy.sparse.linalg import eigsh

_trapz = getattr(np, "trapezoid", None) or np.trapz

SPEED_OF_LIGHT_NM_PER_PS = 299_792.458


# --- 1D slab waveguide dispersion (scalar/TE), solved by bisection --------

def slab_n_eff(n_core, n_clad_lower, n_clad_upper, thickness_nm,
               wavelength_nm, mode=0):
    """Effective index of the guided slab mode from the transcendental
    dispersion relation, solved by bisection on the monotone phase count

        F(n) = kappa d - atan(gamma_lo/kappa) - atan(gamma_up/kappa) - m pi.
    """
    k0 = 2.0 * math.pi / wavelength_nm
    d = thickness_nm
    lo = max(n_clad_lower, n_clad_upper)
    hi = n_core

    def phase(n):
        kappa = k0 * math.sqrt(max(hi * hi - n * n, 0.0))
        g_lo = k0 * math.sqrt(max(n * n - n_clad_lower**2, 0.0))
        g_up = k0 * math.sqrt(max(n * n - n_clad_upper**2, 0.0))
        if kappa == 0.0:
            return -(0.5 * math.pi * 2 + mode * math.pi)
        return (kappa * d - math.atan2(g_lo, kappa) - math.atan2(g_up, kappa)
                - mode * math.pi)

    a, b = lo + 1e-12, hi - 1e-12
    fa, fb = phase(a), phase(b)
    if fa < 0.0 or fb > 0.0:
        raise ValueError(f"slab mode {mode} not guided for these parameters")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if phase(mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def slab_guided_mode_count(n_core, n_clad, thickness_nm, wavelength_nm):
    """Number of guided modes of a symmetric slab: 1 + floor(V/pi) with
    V = k0 d sqrt(n_core^2 - n_clad^2)."""
    v = (2.0 * math.pi / wavelength_nm) * thickness_nm \
        * math.sqrt(n_core**2 - n_clad**2)
    return 1 + int(v / math.pi)


# --- 2D scalar Helmholtz modes on the full grid, plain scipy --------------

def full_grid_operator(index, pitch_nm, wavelength_nm):
    """The 5-point scalar Helmholtz operator on the whole square-pitch grid
    ``index[iy, ix]`` with zero-field edges, assembled from its five
    diagonals (no symmetry used)."""
    ny, nx = index.shape
    cells = ny * nx
    k0 = 2.0 * math.pi / wavelength_nm
    link = 1.0 / pitch_nm**2
    row = np.full(cells - 1, link)
    row[np.arange(1, cells) % nx == 0] = 0.0  # no coupling across grid rows
    column = np.full(cells - nx, link)
    centre = -4.0 * link + (k0 * index.ravel()) ** 2
    return sp.diags([column, row, centre, row, column], [-nx, -1, 0, 1, nx],
                    format="csc")


def full_grid_n_eff(index, pitch_nm, wavelength_nm, count=4):
    """Largest effective indices of :func:`full_grid_operator`, solved by
    scipy's default shift-invert aimed at the largest index."""
    k0 = 2.0 * math.pi / wavelength_nm
    vals = eigsh(full_grid_operator(index, pitch_nm, wavelength_nm), k=count,
                 sigma=(k0 * index.max()) ** 2, return_eigenvectors=False)
    return np.sort(np.sqrt(vals) / k0)[::-1]


def half_map_operator(half, pitch_nm, wavelength_nm, symmetric):
    """The 5-point operator on the half map ``half`` right of a mirror plane,
    as a Kronecker sum of 1D second differences.  For symmetric modes the
    first column is the centre one: the mirror f[-1] = f[1] doubles its
    coupling to column 1, and the unknown f[0] / sqrt(2) makes that sqrt(2)
    each way.  For antisymmetric modes the centre, where the field is zero,
    is left out."""
    ny, nx = half.shape
    k0 = 2.0 * math.pi / wavelength_nm
    link = 1.0 / pitch_nm**2

    def second_difference(n):
        return sp.diags([np.full(n - 1, link), np.full(n, -2.0 * link),
                         np.full(n - 1, link)], [-1, 0, 1], format="lil")

    along_x = second_difference(nx)
    if symmetric:
        along_x[0, 1] = along_x[1, 0] = math.sqrt(2.0) * link
    return (sp.kron(sp.identity(ny), along_x)
            + sp.kron(second_difference(ny), sp.identity(nx))
            + sp.diags((k0 * half.ravel()) ** 2)).tocsr()


def layered_spectrum(profile, columns, pitch_nm, wavelength_nm):
    """Spectrum of the 5-point scalar Helmholtz operator with zero-field
    edges on a map whose every one of ``columns`` columns is the layer
    ``profile`` (index along y).  The operator is a Kronecker sum, so its
    eigenvalues are every sum of one x eigenvalue, the closed-form Dirichlet
    sine spectrum -(2/h sin(j pi / (2 (nx + 1))))^2, and one eigenvalue of
    the dense 1D y operator.  Returns both parts, each in descending order:
    (along_x, along_y)."""
    k0 = 2.0 * math.pi / wavelength_nm
    link = 1.0 / pitch_nm**2
    j = np.arange(1, columns + 1)
    along_x = -4.0 * link * np.sin(j * math.pi / (2.0 * (columns + 1))) ** 2
    ny = len(profile)
    along_y = np.diag(-2.0 * link + (k0 * np.asarray(profile)) ** 2) \
        + np.diag(np.full(ny - 1, link), 1) + np.diag(np.full(ny - 1, link), -1)
    return along_x, np.linalg.eigvalsh(along_y)[::-1]


def layered_count_above(profile, columns, pitch_nm, wavelength_nm, tau):
    """Number of eigenvalues above ``tau`` of the layered map of
    :func:`layered_spectrum`."""
    along_x, along_y = layered_spectrum(profile, columns, pitch_nm,
                                        wavelength_nm)
    return int(np.count_nonzero(along_x[:, None] + along_y[None, :] > tau))


# --- Gaussian two-photon overlap by trapezoid quadrature ------------------

def _packet_params(center_nm, fwhm_nm):
    omega0 = 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_PS / center_nm
    sigma_lambda = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    sigma_omega = 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_PS \
        * sigma_lambda / center_nm**2
    return omega0, sigma_omega


def overlap_quadrature(center1_nm, fwhm1_nm, center2_nm, fwhm2_nm,
                       mode_overlap, tau_ps, n_points=40_001):
    """I(tau) = M^2 |integral phi1(w) phi2(w) e^{-i w tau} dw|^2 evaluated
    numerically with normalized Gaussian spectral amplitudes."""
    w1, s1 = _packet_params(center1_nm, fwhm1_nm)
    w2, s2 = _packet_params(center2_nm, fwhm2_nm)
    span = 10.0 * max(s1, s2) + 0.5 * abs(w1 - w2)
    grid = np.linspace(min(w1, w2) - span, max(w1, w2) + span, n_points)

    def amplitude(w0, sigma):
        return (2.0 * math.pi * sigma**2) ** -0.25 \
            * np.exp(-((grid - w0) ** 2) / (4.0 * sigma**2))

    integrand = amplitude(w1, s1) * amplitude(w2, s2) \
        * np.exp(-1j * grid * tau_ps)
    return mode_overlap**2 * abs(_trapz(integrand, grid)) ** 2


# --- few-photon splitter output via matrix permanents ---------------------

def permanent(matrix):
    n = matrix.shape[0]
    if n == 0:
        return 1.0 + 0j
    return sum(
        math.prod(matrix[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def _mode_unitary(eta):
    t = math.sqrt(1.0 - eta)
    r = math.sqrt(eta)
    # rows: input modes (arm1-matched, arm1-orth, arm2-matched, arm2-orth)
    return np.array(
        [
            [t, 0.0, -1j * r, 0.0],
            [0.0, t, 0.0, -1j * r],
            [-1j * r, 0.0, t, 0.0],
            [0.0, -1j * r, 0.0, t],
        ],
        dtype=complex,
    )


def _fock_amplitude(unitary, occ_in, occ_out):
    rows = np.repeat(np.arange(4), occ_in)
    cols = np.repeat(np.arange(4), occ_out)
    sub = unitary[np.ix_(rows, cols)]
    norm = math.sqrt(
        math.prod(math.factorial(k) for k in occ_in)
        * math.prod(math.factorial(k) for k in occ_out)
    )
    return permanent(sub) / norm


def splitter_distribution_permanent(n_pairs, indistinguishability, eta):
    """Output-occupation probabilities for an n-pair pulse, built from Fock
    amplitudes <T|U|S> = Per(U_[S,T]) / sqrt(prod S! prod T!)."""
    lam = math.sqrt(indistinguishability)
    ortho = math.sqrt(1.0 - indistinguishability)
    unitary = _mode_unitary(eta)
    inputs = []
    for k in range(n_pairs + 1):
        occ = (n_pairs, 0, k, n_pairs - k)
        coeff = (
            math.comb(n_pairs, k) * lam**k * ortho ** (n_pairs - k)
            * math.sqrt(math.factorial(n_pairs) * math.factorial(k)
                        * math.factorial(n_pairs - k))
            / math.factorial(n_pairs)
        )
        inputs.append((occ, coeff))

    total = 2 * n_pairs
    dist = {}
    for occ_out in itertools.product(range(total + 1), repeat=4):
        if sum(occ_out) != total:
            continue
        amp = sum(c * _fock_amplitude(unitary, occ_in, occ_out)
                  for occ_in, c in inputs)
        prob = abs(amp) ** 2
        if prob > 1e-300:
            dist[occ_out] = prob
    return dist


# --- splitter-limited visibility ------------------------------------------

def visibility_eq(eta):
    """The splitting-ratio-limited visibility in its printed form."""
    eta = np.asarray(eta, dtype=float)
    return 2.0 * eta * (1.0 - eta) / (1.0 - 2.0 * eta + 2.0 * eta**2)


# --- coupler branch lengths by brute-force scan ---------------------------

def branch_length_scan(coupling_rate_per_um, offset_um, target, order,
                       scan_max_um=2000.0, n_grid=2_000_001):
    """m-th smallest non-negative interaction length with
    sin^2(kappa (L + L0)) = target, found by dense scan + bisection."""
    grid = np.linspace(0.0, scan_max_um, n_grid)
    f = np.sin(coupling_rate_per_um * (grid + offset_um)) ** 2 - target
    hits = []
    if abs(f[0]) < 1e-15:
        hits.append(0.0)
    sign_change = np.nonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[0]
    for i in sign_change:
        a, b = grid[i], grid[i + 1]
        fa = f[i]
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = math.sin(coupling_rate_per_um * (mid + offset_um)) ** 2 - target
            if (fm < 0.0) == (fa < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        hits.append(0.5 * (a + b))
    deduped = []
    for h in hits:
        if not deduped or h - deduped[-1] > 1e-6:
            deduped.append(h)
    if order >= len(deduped):
        raise ValueError("scan window too small for requested branch")
    return deduped[order]


# --- Fabry-Perot fringe contrast ------------------------------------------

def fp_contrast(facet_reflectivity, alpha_db_per_cm, length_cm):
    """Expected fringe contrast of a lossy cavity: K = 2 R~ / (1 + R~^2)
    with R~ = R * 10^(-alpha L / 10)."""
    rt = facet_reflectivity * 10.0 ** (-alpha_db_per_cm * length_cm / 10.0)
    return 2.0 * rt / (1.0 + rt * rt)


# --- detector dead time and per-pulse coincidence probability ------------

def dense_dead_time(raw_clicks, blind_step):
    """Non-paralyzable dead time walked pulse by pulse over a boolean click
    train: a counted click blinds the channel for the next blind_step - 1
    pulses.  Returns the boolean train of counted clicks."""
    counted = np.zeros(len(raw_clicks), dtype=bool)
    blind = 0
    for i, click in enumerate(raw_clicks):
        if blind:
            blind -= 1
        elif click:
            counted[i] = True
            blind = blind_step - 1
    return counted


def _pair_weights(mu, statistics, max_pairs):
    if statistics == "poissonian-pairs":
        return [math.exp(-mu) * mu**n / math.factorial(n)
                for n in range(max_pairs + 1)]
    if statistics == "thermal-pairs":
        return [mu**n / (1.0 + mu) ** (n + 1) for n in range(max_pairs + 1)]
    raise ValueError(statistics)


def _arm_distribution_permanent(n_pairs, indistinguishability, eta):
    arms = {}
    for (n0, n1, n2, n3), p in splitter_distribution_permanent(
            n_pairs, indistinguishability, eta).items():
        arms[(n0 + n1, n2 + n3)] = arms.get((n0 + n1, n2 + n3), 0.0) + p
    return arms


def _arm_distribution_classical(n_pairs, eta):
    """Independent routing: each signal photon keeps arm 1 with probability
    1 - eta, each idler photon crosses into arm 1 with probability eta."""
    arms = {}
    for stay in range(n_pairs + 1):
        p_stay = math.comb(n_pairs, stay) * (1.0 - eta) ** stay \
            * eta ** (n_pairs - stay)
        for cross in range(n_pairs + 1):
            p_cross = math.comb(n_pairs, cross) * eta**cross \
                * (1.0 - eta) ** (n_pairs - cross)
            key = (stay + cross, 2 * n_pairs - stay - cross)
            arms[key] = arms.get(key, 0.0) + p_stay * p_cross
    return arms


def _pulse_event_probability(event, mu, statistics, indistinguishability,
                             eta, efficiency, dark, max_pairs):
    """Per-pulse probability of ``event(click1, click2)``, a function of
    the two arms' click probabilities, without dead time: up to max_pairs
    pairs interfere (permanent amplitudes), the remaining pair-number mass
    is routed classically as max_pairs + 1 pairs, and each arm clicks
    unless every photon is missed and no dark count fires."""
    weights = _pair_weights(mu, statistics, max_pairs)

    def click(photons):
        return 1.0 - (1.0 - efficiency) ** photons * (1.0 - dark)

    def expected(arms):
        return sum(p * event(click(a), click(b)) for (a, b), p in arms.items())

    total = weights[0] * event(dark, dark)
    for n in range(1, max_pairs + 1):
        total += weights[n] * expected(
            _arm_distribution_permanent(n, indistinguishability, eta))
    tail = 1.0 - sum(weights)
    return total + tail * expected(
        _arm_distribution_classical(max_pairs + 1, eta))


def pulse_coincidence_probability(mu, statistics, indistinguishability, eta,
                                  efficiency, dark, max_pairs=2):
    """Per-pulse probability that both threshold detectors click."""
    return _pulse_event_probability(
        lambda click1, click2: click1 * click2, mu, statistics,
        indistinguishability, eta, efficiency, dark, max_pairs)


def pulse_single_click_probability(mu, statistics, indistinguishability, eta,
                                   efficiency, dark, arm, max_pairs=2):
    """Per-pulse probability that the detector on ``arm`` (1 or 2) clicks
    and the other one does not."""
    if arm == 1:
        def event(click1, click2):
            return click1 * (1.0 - click2)
    elif arm == 2:
        def event(click1, click2):
            return (1.0 - click1) * click2
    else:
        raise ValueError(arm)
    return _pulse_event_probability(event, mu, statistics,
                                    indistinguishability, eta, efficiency,
                                    dark, max_pairs)


def _reference_fit(residuals, jacobian, x0, rescale_by_chi_square):
    """MINPACK Levenberg-Marquardt with the package's step tolerance, with
    the cost and gradient rules tightened so that it stops at the minimum
    and not where the cost merely stops falling by 1e-8; returns the
    parameters and their 1-sigma uncertainties from pinv(J^T J)."""
    result = least_squares(residuals, x0, jac=jacobian, method="lm",
                           xtol=1e-10, ftol=1e-15, gtol=1e-15, max_nfev=500)
    if not result.success:
        raise RuntimeError(result.message)
    covariance = np.linalg.pinv(result.jac.T @ result.jac)
    if rescale_by_chi_square:
        dof = result.fun.size - result.x.size
        covariance = covariance * (result.fun @ result.fun / dof)
    return result.x, np.sqrt(np.diag(covariance))


def sinusoid_fit_reference(lengths, ratios, x0):
    """Uniformly weighted fit of B + A sin^2(pi (L + L0) / (2 Lc)) from x0 =
    (Lc, L0, A, B); the covariance is rescaled by the reduced chi-square."""
    def theta(p):
        return np.pi * (lengths + p[1]) / (2.0 * p[0])

    def residuals(p):
        return p[3] + p[2] * np.sin(theta(p)) ** 2 - ratios

    def jacobian(p):
        t = theta(p)
        d_theta = p[2] * np.sin(2.0 * t)
        return np.column_stack([-d_theta * t / p[0],
                                d_theta * np.pi / (2.0 * p[0]),
                                np.sin(t) ** 2, np.ones_like(t)])

    return _reference_fit(residuals, jacobian, x0, True)


def dip_fit_reference(delays, values, x0, poisson):
    """Fit of B (1 - V exp(-(tau - tau0)^2 / (2 w^2))) from x0 = (V, tau0,
    w, B): Poisson weights 1/sqrt(max(c, 1)) and no rescaling for counts,
    uniform weights and a chi-square rescaled covariance otherwise."""
    sigma = np.sqrt(np.maximum(values, 1.0)) if poisson else np.ones(values.size)

    def gauss(p):
        return np.exp(-((delays - p[1]) ** 2) / (2.0 * p[2] ** 2))

    def residuals(p):
        return (p[3] * (1.0 - p[0] * gauss(p)) - values) / sigma

    def jacobian(p):
        g, u = gauss(p), delays - p[1]
        columns = [-p[3] * g, -p[3] * p[0] * g * u / p[2] ** 2,
                   -p[3] * p[0] * g * u**2 / p[2] ** 3, 1.0 - p[0] * g]
        return np.column_stack(columns) / sigma[:, None]

    return _reference_fit(residuals, jacobian, x0, not poisson)
