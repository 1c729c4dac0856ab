"""Model fitting and loss analysis for coupler and interference data.

Three smooth, low-dimensional models are fitted or inverted:

  * splitting ratio versus interaction length,
        P(L) = B + A sin^2(pi (L + L0) / (2 Lc)),
  * Gaussian coincidence dip versus delay,
        C(tau) = B (1 - V exp(-(tau - tau0)^2 / (2 w^2))),
  * Fabry-Perot facet fringes, whose contrast inverts to a propagation
    loss in dB/cm.

Raw counts get Poisson weights (sigma_i = sqrt(max(c_i, 1))); probability
data is weighted uniformly, with the covariance rescaled by the reduced
chi-square.  Fits are deterministic: fixed iteration schedule, no random
restarts.

Each curve fit hands one model, which returns its residuals and their
analytic Jacobian together, to one Levenberg-Marquardt routine in numpy
(More, LNM 630, 1978; Madsen, Nielsen and Tingleff, "Methods for
non-linear least squares problems", 2004), which returns the FitResult
with the covariance from its last Gram matrix J^T J.  Each step solves
(J^T J + mu D) h = -J^T r, where the diagonal scaling D is the running
maximum of diag(J^T J), so the damping acts alike on parameters of any
unit.  A step is accepted when the actual reduction of |r|^2 / 2 is
positive against the reduction the linear model predicts; the ratio rho
of the two then scales mu by max(1/3, 1 - (2 rho - 1)^3) (Nielsen's
rule), while a rejected step multiplies mu by 2, 4, 8, ... in turn.  The
fit stops after a step with |h| <= STEP_TOLERANCE (STEP_TOLERANCE + |x|),
taken if it lowers the residual.  It raises ConvergenceError once
MAX_ITERATIONS model evaluations are spent, or when the step system is
singular: the damping, cut at each accepted step, no longer lifts
Jacobian columns that have become parallel, as when a sinusoid's period
runs off far beyond the scan.

A scan without a dip may have no finite dip fit: the chi-square can keep
falling towards a one-sample spike (the width shrinks at fixed visibility
times width) or towards a parabola (the width grows at fixed curvature).
The dip fit therefore raises UnidentifiableDataError as soon as an
accepted width falls below a quarter of the smallest delay step or grows
beyond the span of the scan, or an accepted centre lies more than three
widths outside the scan, on the flank of a dip the scan never reaches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NegativeLossWarning, UnidentifiableDataError
from .hom import _FWHM_TO_SIGMA, DelayScan, _read_only

MAX_ITERATIONS = 500
STEP_TOLERANCE = 1e-10
# first damping factor, relative to the diagonal scaling
_INITIAL_DAMPING = 1e-3
# fewest delay points fit_gaussian_dip accepts
MIN_DIP_POINTS = 10
# a Gaussian dip of a quarter of the delay step falls to exp(-8) of its
# depth one step from its centre, so it moves at most the two samples
# around it: no scan resolves a narrower dip
_MIN_DIP_WIDTH_PER_STEP = 0.25


@dataclass(frozen=True)
class PowerRatioSeries:
    """Measured cross-port power fraction versus coupler interaction length,
    held as read-only float copies of the arrays it is given.  Each column
    is checked by the one rule ``DelayScan`` applies, under one label
    ("interaction lengths", "power ratios"): the lengths are its axis, so
    an empty series is refused.  Ratios must also lie in [0, 1]."""

    interaction_length_um: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        lengths = _read_only(self.interaction_length_um, "interaction lengths")
        object.__setattr__(self, "interaction_length_um", lengths)
        object.__setattr__(self, "ratio",
                           _read_only(self.ratio, "power ratios", lengths))
        if np.any((self.ratio < 0) | (self.ratio > 1)):
            raise ValueError("power ratios must lie in [0, 1]")


@dataclass
class FitResult:
    """Parameter estimates with covariance; 1-sigma uncertainties are the
    square roots of the covariance diagonal."""

    parameters: dict
    covariance: np.ndarray
    residual_rms: float
    residuals: np.ndarray = field(repr=False, default=None)

    @property
    def uncertainties(self):
        sigmas = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return dict(zip(self.parameters, (float(s) for s in sigmas)))


def _least_squares(model, x0, names, rescale_by_chi_square, check=None):
    """Least-squares fit from x0 of ``model(x) -> (residuals, jacobian)``;
    returns its FitResult, the covariance taken from the last Gram matrix
    J^T J.  ``check``, when given, sees every accepted x and may raise to
    end the fit."""
    x = np.asarray(x0, dtype=float)
    residual, jac = model(x)
    evaluations = 1
    gram = jac.T @ jac
    scale = np.diag(gram)
    damping, growth = _INITIAL_DAMPING, 2.0
    while True:
        gradient = jac.T @ residual
        try:
            step = np.linalg.solve(gram + np.diag(damping * scale), -gradient)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"fit met a singular step system after {evaluations} "
                "evaluations", residual_norm=float(np.linalg.norm(residual)),
            ) from None
        if evaluations >= MAX_ITERATIONS:
            raise ConvergenceError(
                f"fit did not converge within {MAX_ITERATIONS} evaluations",
                residual_norm=float(np.linalg.norm(residual)),
            )
        converged = np.linalg.norm(step) \
            <= STEP_TOLERANCE * (STEP_TOLERANCE + np.linalg.norm(x))
        trial = x + step
        trial_residual, trial_jac = model(trial)
        evaluations += 1
        actual = 0.5 * (residual @ residual - trial_residual @ trial_residual)
        if actual > 0.0:  # False for a non-finite trial residual
            predicted = 0.5 * step @ (damping * scale * step - gradient)
            rho = actual / predicted
            x, residual, jac = trial, trial_residual, trial_jac
            if check is not None:
                check(x)
            gram = jac.T @ jac
            scale = np.maximum(scale, np.diag(gram))
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
        else:
            damping *= growth
            growth *= 2.0
        if converged:
            break
    chi_square = float(residual @ residual)
    gram_inv = np.linalg.pinv(gram)
    if rescale_by_chi_square:
        # unknown uniform noise level: scale by reduced chi-square
        gram_inv = gram_inv * (chi_square / max(residual.size - x.size, 1))
    return FitResult(
        parameters=dict(zip(names, (float(v) for v in x))),
        covariance=0.5 * (gram_inv + gram_inv.T),
        residual_rms=math.sqrt(chi_square / residual.size),
        residuals=residual,
    )


def _sinusoid_guess(lengths, ratios):
    amplitude = float(np.ptp(ratios))
    baseline = float(ratios.min())
    # dominant period from an FFT on a resampled uniform grid
    uniform = np.linspace(lengths[0], lengths[-1], 4 * lengths.size)
    resampled = np.interp(uniform, lengths, ratios)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(uniform.size, uniform[1] - uniform[0])
    peak = 1 + int(np.argmax(spectrum[1:]))
    coupling_length = 0.5 / freqs[peak]
    # project onto the quadratures at that frequency to place the phase
    omega = math.pi / coupling_length
    centered = ratios - ratios.mean()
    cos_part = float(np.sum(centered * np.cos(omega * lengths)))
    sin_part = float(np.sum(centered * np.sin(omega * lengths)))
    phase = math.atan2(sin_part, -cos_part) % (2.0 * math.pi)
    return [coupling_length, phase / omega, amplitude, baseline]


def fit_coupling_sinusoid(series):
    """Fit the sin^2 power-exchange model; returns coupling_length_um,
    offset_um, amplitude and baseline.

    Raises UnidentifiableDataError for a constant series and
    ConvergenceError if the solver stalls.
    """
    lengths = series.interaction_length_um
    ratios = series.ratio
    if lengths.size < 6:
        raise ValueError("need at least 6 points to fit the sinusoid")
    if np.ptp(ratios) == 0.0:
        raise UnidentifiableDataError("constant power ratio carries no period")
    names = ("coupling_length_um", "offset_um", "amplitude", "baseline")
    x0 = _sinusoid_guess(lengths, ratios)

    def model(params):
        coupling_length, offset, amplitude, baseline = params
        theta = 0.5 * math.pi * (lengths + offset) / coupling_length
        swing = amplitude * np.sin(2.0 * theta)
        jac = np.empty((lengths.size, 4))
        jac[:, 0] = -swing * theta / coupling_length
        jac[:, 1] = swing * 0.5 * math.pi / coupling_length
        jac[:, 2] = np.sin(theta) ** 2
        jac[:, 3] = 1.0
        return baseline + amplitude * jac[:, 2] - ratios, jac

    return _least_squares(model, x0, names, True)


def coupling_length_statistics(fitted_lengths):
    """Sample mean and sample standard deviation (ddof=1) of per-port
    coupling-length fits.  Raises ``ValueError`` unless they are a 1D
    sequence of at least two finite values."""
    values = np.asarray(fitted_lengths, dtype=float)
    if values.ndim != 1:
        raise ValueError("fitted values must be a 1D sequence")
    if values.size < 2:
        raise ValueError("need at least two fitted values")
    if not np.isfinite(values).all():
        raise ValueError("fitted values must be finite")
    return float(values.mean()), float(values.std(ddof=1))


def _dip_guess(delays, values):
    baseline = float(np.maximum(values[0], values[-1]))
    if baseline <= 0:
        baseline = max(float(values.max()), 1.0)
    lowest = int(np.argmin(values))
    center = float(delays[lowest])
    visibility = min(max(1.0 - values[lowest] / baseline, 0.01), 1.0)
    half_level = baseline * (1.0 - 0.5 * visibility)
    below = np.flatnonzero(values < half_level)
    if below.size >= 2:
        fwhm = float(delays[below[-1]] - delays[below[0]])
    else:
        fwhm = float(delays[-1] - delays[0]) / 4.0
    width = max(fwhm, float(delays[1] - delays[0])) / _FWHM_TO_SIGMA
    return [visibility, center, width, baseline]


def fit_gaussian_dip(scan):
    """Fit the Gaussian dip model to a DelayScan; returns visibility,
    center_ps, width_ps and baseline.

    Integer-valued scans are treated as raw counts and get Poisson weights.
    Its delays and values are finite, as every ``DelayScan``'s are.
    Raises UnidentifiableDataError when the fitted width falls below a
    quarter of the smallest delay step or grows beyond the span of the
    scan, or the centre leaves it by three widths, as on a scan with no dip.
    """
    delays = scan.delay_ps
    values = np.asarray(scan.values, dtype=float)
    if delays.size < MIN_DIP_POINTS:
        raise ValueError(f"need at least {MIN_DIP_POINTS} points to fit the dip")
    names = ("visibility", "center_ps", "width_ps", "baseline")
    x0 = _dip_guess(delays, values)
    poisson = np.issubdtype(scan.values.dtype, np.integer)
    sigma = np.sqrt(np.maximum(values, 1.0)) if poisson else np.ones_like(values)

    def model(params):
        visibility, center, width, baseline = params
        pulled = delays - center
        shape = np.exp(-(pulled**2) / (2.0 * width**2))
        jac = np.empty((delays.size, 4))
        jac[:, 0] = -baseline * shape
        jac[:, 1] = -baseline * visibility * shape * pulled / width**2
        jac[:, 2] = -baseline * visibility * shape * pulled**2 / width**3
        jac[:, 3] = 1.0 - visibility * shape
        return (baseline * jac[:, 3] - values) / sigma, (jac.T / sigma).T

    step = float(np.min(np.diff(delays)))
    span = float(delays[-1] - delays[0])

    def check(params):
        center, width = params[1], abs(params[2])
        if width < _MIN_DIP_WIDTH_PER_STEP * step:
            raise UnidentifiableDataError(
                f"the dip fit narrowed to a width of {width:.3g} ps, below a "
                f"quarter of the {step:.3g} ps delay step: the scan resolves "
                "no dip")
        if width > span:
            # over the scan such a dip is a parabola, whose curvature fixes
            # only baseline * visibility / width^2
            raise UnidentifiableDataError(
                f"the dip fit widened to a width of {width:.3g} ps, beyond "
                f"the {span:.3g} ps the scan spans: the scan resolves no dip")
        # a dip three widths outside reaches the scan with about 1 % of
        # its depth, so a deeper, farther one fits as well
        if abs(center - delays[0] - 0.5 * span) > 0.5 * span + 3.0 * width:
            raise UnidentifiableDataError(
                f"the dip fit moved its centre to {center:.3g} ps, over three "
                "widths outside the scan: the scan resolves no dip")

    return _least_squares(model, x0, names, not poisson, check)


def normalized_scan(scan, fit_result):
    """Scan divided by the fitted baseline, so the wings sit at 1."""
    baseline = fit_result.parameters["baseline"]
    return DelayScan(delay_ps=scan.delay_ps,
                     values=scan.values / baseline,
                     stage_um=scan.stage_um)


def fresnel_reflectivity(n_eff):
    """Normal-incidence facet reflectivity from the mode's effective index."""
    if not 0.0 < n_eff < math.inf:
        raise ValueError("n_eff must be finite and positive")
    return ((n_eff - 1.0) / (n_eff + 1.0)) ** 2


def fabry_perot_loss(contrast, facet_reflectivity, length_cm):
    """Propagation loss (dB/cm) from facet-cavity fringe contrast.

    A contrast exceeding the lossless bound gives a negative loss, returned
    as-is with a NegativeLossWarning rather than clamped.
    """
    if not 0.0 < contrast < 1.0:
        raise ValueError("contrast must lie strictly between 0 and 1")
    if not 0.0 < facet_reflectivity < 1.0:
        raise ValueError("facet reflectivity must lie strictly between 0 and 1")
    if not 0.0 < length_cm < math.inf:
        raise ValueError("length_cm must be finite and positive")
    effective = (1.0 - math.sqrt(1.0 - contrast**2)) / contrast
    alpha = -(10.0 / length_cm) * math.log10(effective / facet_reflectivity)
    if alpha < -1e-9:  # ignore rounding noise around the lossless point
        warnings.warn(
            f"fringe contrast {contrast} implies gain ({alpha:.3f} dB/cm); "
            "check the assumed facet reflectivity",
            NegativeLossWarning,
            stacklevel=2,
        )
    return alpha


def fabry_perot_fringes(phase_rad, loss_db_per_cm, length_cm, facet_reflectivity):
    """Synthetic facet-cavity transmission versus round-trip phase (Airy
    function), for closing the contrast-extraction roundtrip.  The loss
    must be finite; a negative one is gain."""
    if not -math.inf < loss_db_per_cm < math.inf:
        raise ValueError("loss_db_per_cm must be finite")
    if not 0.0 < facet_reflectivity < 1.0:
        raise ValueError("facet reflectivity must lie strictly between 0 and 1")
    if not 0.0 < length_cm < math.inf:
        raise ValueError("length_cm must be finite and positive")
    phase = np.asarray(phase_rad, dtype=float)
    single_pass = 10.0 ** (-loss_db_per_cm * length_cm / 10.0)
    loop = facet_reflectivity * single_pass
    numerator = (1.0 - facet_reflectivity) ** 2 * single_pass
    return numerator / ((1.0 - loop) ** 2 + 4.0 * loop * np.sin(0.5 * phase) ** 2)


def fringe_contrast(values):
    """Michelson contrast (max - min)/(max + min) of a fringe trace.
    Raises ``ValueError`` unless the trace is non-empty, finite,
    non-negative and not all zero."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("fringe trace must not be empty")
    if not np.isfinite(values).all():
        raise ValueError("fringe trace must be finite")
    top = float(values.max())
    bottom = float(values.min())
    if bottom < 0:
        raise ValueError("fringe trace must not be negative")
    if top + bottom <= 0:
        raise ValueError("fringe trace must contain positive values")
    return (top - bottom) / (top + bottom)

