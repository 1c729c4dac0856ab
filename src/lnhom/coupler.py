"""Lumped coupled-mode model of a two-waveguide directional coupler.

Power exchange over an interaction length L_I (plus a bend-region offset
L_0 acting as extra effective length) is governed by the accumulated
coupling phase

    theta(lambda, L_I) = kappa(lambda) * (L_I + L_0),
    kappa(lambda) = kappa0 + slope * (lambda - lambda0),

with the cross-port power fraction eta = sin^2(theta).  ``kappa0`` comes
from the beat length at the reference wavelength, kappa0 = pi / (2 L_c).
The kappa slope is the first-order expansion of kappa = pi delta_n / lambda
around lambda0 for a supermode index splitting delta_n that varies linearly
with slope s: slope = (1000 pi s - kappa0) / lambda0.
A device holds the beat length, its dispersion and L_0; L_I is an argument
of the phase, the ratio and the transfer matrix, so a scan over
interaction length and one over wavelength are the same broadcast call.
Cross coupling carries the -i quadrature phase of the symmetric coupler
convention; two-photon coincidence rates do not depend on that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableTargetError


@dataclass(frozen=True)
class CouplerDevice:
    """Directional coupler with a linear-in-wavelength coupling rate.

    ``delta_n_slope_per_nm`` is the slope of the supermode index splitting,
    d(delta_n)/d(wavelength) per nm.  A zero slope still leaves the chromatic
    1/lambda dependence of kappa = pi delta_n / lambda.  Lengths are in um,
    wavelengths in nm.
    """

    coupling_length_um: float
    reference_wavelength_nm: float = 1550.0
    delta_n_slope_per_nm: float = 0.0
    bend_offset_um: float = 0.0

    def __post_init__(self):
        if not 0 < self.coupling_length_um < math.inf:
            raise ValueError("coupling_length_um must be finite and positive")
        if not 0 < self.reference_wavelength_nm < math.inf:
            raise ValueError("reference_wavelength_nm must be finite and "
                             "positive")
        if not math.isfinite(self.delta_n_slope_per_nm):
            raise ValueError("delta_n_slope_per_nm must be finite")
        if not 0 <= self.bend_offset_um < math.inf:
            raise ValueError("bend_offset_um must be finite and non-negative")

    def coupling_rate_per_um(self, wavelength_nm):
        """kappa(lambda) in rad/um; positive and finite within the supported
        band."""
        kappa0 = math.pi / (2.0 * self.coupling_length_um)
        lambda0 = self.reference_wavelength_nm
        slope = (1000.0 * math.pi * self.delta_n_slope_per_nm - kappa0) / lambda0
        kappa = kappa0 + slope * (np.asarray(wavelength_nm, dtype=float) - lambda0)
        if not np.all((kappa > 0.0) & (kappa < math.inf)):
            raise ValueError(
                "wavelength outside the supported band of the dispersion "
                "parametrization (coupling rate would be non-positive)"
            )
        return kappa if np.ndim(wavelength_nm) else float(kappa)

    def coupling_phase(self, wavelength_nm, interaction_length_um):
        """Accumulated phase theta = kappa(lambda) (L_I + L_0) for an
        interaction length L_I in um; broadcasts over wavelength and
        length, and is a float when both are scalars."""
        length = np.asarray(interaction_length_um, dtype=float)
        if not np.all((length >= 0.0) & (length < math.inf)):
            raise ValueError("interaction_length_um must be finite and "
                             "non-negative")
        if not length.ndim:
            length = float(length)
        return self.coupling_rate_per_um(wavelength_nm) \
            * (length + self.bend_offset_um)


def transfer_matrix(device, wavelength_nm, interaction_length_um):
    """2x2 unitary mapping input to output waveguide amplitudes."""
    theta = device.coupling_phase(wavelength_nm, interaction_length_um)
    return np.array([[math.cos(theta), -1j * math.sin(theta)],
                     [-1j * math.sin(theta), math.cos(theta)]])


def splitting_ratio(device, wavelength_nm, interaction_length_um):
    """Cross-port power fraction eta = sin^2(theta); bar port gets 1 - eta.

    Broadcasts over wavelength and interaction length.  A scalar is squared
    by the same ufunc as an array, so each element of a broadcast call
    equals the scalar call at its point bit for bit."""
    eta = np.square(np.sin(device.coupling_phase(wavelength_nm,
                                                 interaction_length_um)))
    return eta if np.ndim(eta) else float(eta)


def _branch_phase(target_eta, order):
    # theta on the order-th half-period of sin^2: rising for even branches,
    # falling for odd ones
    root = math.asin(math.sqrt(target_eta))
    half_period = 0.5 * math.pi
    if order % 2 == 0:
        return order * half_period + root
    return (order + 1) * half_period - root


def length_for_ratio(device, target_eta, order=0):
    """Smallest interaction length (um) reaching ``target_eta`` on the given
    half-period branch at the device's reference wavelength.

    Raises :class:`UnreachableTargetError` when the bend offset alone already
    overshoots that branch.
    """
    if not 0.0 <= target_eta <= 1.0:
        raise ValueError("target_eta must lie in [0, 1]")
    # True equals 1, and would design branch 1
    if isinstance(order, (bool, np.bool_)) or not 0 <= order < math.inf \
            or order != int(order):
        raise ValueError("order must be a non-negative integer")
    kappa0 = device.coupling_rate_per_um(device.reference_wavelength_nm)
    length = _branch_phase(target_eta, int(order)) / kappa0 - device.bend_offset_um
    if length < 0.0:
        raise UnreachableTargetError(
            f"target ratio {target_eta} on branch {order} needs a negative "
            f"interaction length with bend offset {device.bend_offset_um} um"
        )
    return length
