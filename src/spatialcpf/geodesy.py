"""Transverse Mercator conversion between ITM (EPSG:2157) and WGS84.

Forward and inverse projections use the Krueger series in the third
flattening n, carried to n^6 (well beyond sixth order in eccentricity),
accurate to a few nanometres (Karney 2011, J. Geodesy 85:475). ETRS89 is
treated as identical to WGS84; the datum difference is sub-meter and
irrelevant at the 2 km sampling grid of the survey. Both directions take
scalars, giving Python floats, or equal-shape arrays, converted whole; a
domain error names the first offending coordinate in input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError

# Sanity bounds for ITM planar coordinates (meters).
EASTING_RANGE = (0.0, 1_200_000.0)
NORTHING_RANGE = (0.0, 1_500_000.0)

# Validity window for the inverse direction (degrees).
LAT_WINDOW = (45.0, 60.0)
LON_WINDOW = (-15.0, 0.0)


@dataclass(frozen=True)
class TmProjection:
    semi_major_axis: float
    inverse_flattening: float
    lat_origin: float
    lon_origin: float
    scale_factor: float
    false_easting: float
    false_northing: float


# EPSG:2157 — Irish Transverse Mercator on GRS80. Registry constants.
ITM = TmProjection(
    semi_major_axis=6378137.0,
    inverse_flattening=298.257222101,
    lat_origin=53.5,
    lon_origin=-8.0,
    scale_factor=0.99982,
    false_easting=600000.0,
    false_northing=750000.0,
)

# Krueger series coefficients for ITM's ellipsoid, in the third flattening n.
_f = 1.0 / ITM.inverse_flattening
n = _f / (2.0 - _f)
n2, n3, n4, n5 = n * n, n ** 3, n ** 4, n ** 5
n6 = n ** 6
_E = math.sqrt(_f * (2.0 - _f))
# Scale factor times the rectifying radius.
_K0A = ITM.scale_factor * (ITM.semi_major_axis / (1.0 + n) * (
    1.0 + n2 / 4.0 + n4 / 64.0 + n6 / 256.0))
# Forward (conformal -> rectifying) coefficients, Krueger alpha.
_ALPHA = (
    n / 2.0 - 2.0 * n2 / 3.0 + 5.0 * n3 / 16.0 + 41.0 * n4 / 180.0
    - 127.0 * n5 / 288.0 + 7891.0 * n6 / 37800.0,
    13.0 * n2 / 48.0 - 3.0 * n3 / 5.0 + 557.0 * n4 / 1440.0
    + 281.0 * n5 / 630.0 - 1983433.0 * n6 / 1935360.0,
    61.0 * n3 / 240.0 - 103.0 * n4 / 140.0 + 15061.0 * n5 / 26880.0
    + 167603.0 * n6 / 181440.0,
    49561.0 * n4 / 161280.0 - 179.0 * n5 / 168.0 + 6601661.0 * n6 / 7257600.0,
    34729.0 * n5 / 80640.0 - 3418889.0 * n6 / 1995840.0,
    212378941.0 * n6 / 319334400.0,
)
# Inverse (rectifying -> conformal) coefficients, Krueger beta.
_BETA = (
    n / 2.0 - 2.0 * n2 / 3.0 + 37.0 * n3 / 96.0 - n4 / 360.0
    - 81.0 * n5 / 512.0 + 96199.0 * n6 / 604800.0,
    n2 / 48.0 + n3 / 15.0 - 437.0 * n4 / 1440.0 + 46.0 * n5 / 105.0
    - 1118711.0 * n6 / 3870720.0,
    17.0 * n3 / 480.0 - 37.0 * n4 / 840.0 - 209.0 * n5 / 4480.0
    + 5569.0 * n6 / 90720.0,
    4397.0 * n4 / 161280.0 - 11.0 * n5 / 504.0 - 830251.0 * n6 / 7257600.0,
    4583.0 * n5 / 161280.0 - 108847.0 * n6 / 3991680.0,
    20648693.0 * n6 / 638668800.0,
)
# Conformal -> geographic latitude series.
_DELTA = (
    2.0 * n - 2.0 * n2 / 3.0 - 2.0 * n3 + 116.0 * n4 / 45.0
    + 26.0 * n5 / 45.0 - 2854.0 * n6 / 675.0,
    7.0 * n2 / 3.0 - 8.0 * n3 / 5.0 - 227.0 * n4 / 45.0
    + 2704.0 * n5 / 315.0 + 2323.0 * n6 / 945.0,
    56.0 * n3 / 15.0 - 136.0 * n4 / 35.0 - 1262.0 * n5 / 105.0
    + 73814.0 * n6 / 2835.0,
    4279.0 * n4 / 630.0 - 332.0 * n5 / 35.0 - 399572.0 * n6 / 14175.0,
    4174.0 * n5 / 315.0 - 144838.0 * n6 / 6237.0,
    601676.0 * n6 / 22275.0,
)
del n, n2, n3, n4, n5, n6


def _xi_eta(phi, dlon):
    """Rectifying (xi, eta) of latitude phi and longitude offset dlon (radians)."""
    tau = np.tan(phi)
    sigma = np.sinh(_E * np.arctanh(_E * np.sin(phi)))
    taup = tau * np.hypot(1.0, sigma) - sigma * np.hypot(1.0, tau)
    xi_p = np.arctan2(taup, np.cos(dlon))
    eta_p = np.arcsinh(np.sin(dlon) / np.hypot(taup, np.cos(dlon)))
    xi, eta = xi_p, eta_p
    for j, a in enumerate(_ALPHA, start=1):
        xi = xi + a * np.sin(2 * j * xi_p) * np.cosh(2 * j * eta_p)
        eta = eta + a * np.cos(2 * j * xi_p) * np.sinh(2 * j * eta_p)
    return xi, eta


# Rectifying latitude of the projection origin.
_XI0 = float(_xi_eta(math.radians(ITM.lat_origin), 0.0)[0])


def itm_in_range(easting, northing):
    """True where (easting, northing) lies within EASTING_RANGE and
    NORTHING_RANGE; False for NaN. Elementwise on arrays."""
    return ((EASTING_RANGE[0] <= easting) & (easting <= EASTING_RANGE[1])
            & (NORTHING_RANGE[0] <= northing) & (northing <= NORTHING_RANGE[1]))


def _first_outside(inside, *coords) -> tuple[float, ...] | None:
    """The coordinates at the first False of inside, in input order, as
    Python floats; None when every entry is inside."""
    if inside.all():
        return None
    i = np.flatnonzero(~inside)[0]
    return tuple(float(c.flat[i]) for c in coords)


def _result(values: np.ndarray):
    """A Python float for 0-d values, else the array."""
    return float(values) if values.ndim == 0 else values


def itm_to_wgs84(easting, northing):
    """Inverse projection: ITM planar meters -> (latitude, longitude) degrees."""
    easting, northing = np.asarray(easting, dtype=float), np.asarray(northing, dtype=float)
    bad = _first_outside(itm_in_range(easting, northing), easting, northing)
    if bad is not None:
        if not all(map(math.isfinite, bad)):
            raise OutOfDomainError("non-finite ITM coordinate")
        raise OutOfDomainError(f"ITM coordinate out of range: easting={bad[0]}, northing={bad[1]}")
    xi = (northing - ITM.false_northing) / _K0A + _XI0
    eta = (easting - ITM.false_easting) / _K0A
    xi_p, eta_p = xi, eta
    for j, b in enumerate(_BETA, start=1):
        xi_p = xi_p - b * np.sin(2 * j * xi) * np.cosh(2 * j * eta)
        eta_p = eta_p - b * np.cos(2 * j * xi) * np.sinh(2 * j * eta)
    chi = np.arcsin(np.sin(xi_p) / np.cosh(eta_p))
    phi = chi
    for j, d in enumerate(_DELTA, start=1):
        phi = phi + d * np.sin(2 * j * chi)
    dlon = np.arctan2(np.sinh(eta_p), np.cos(xi_p))
    return _result(np.degrees(phi)), _result(ITM.lon_origin + np.degrees(dlon))


def wgs84_to_itm(lat, lon):
    """Forward projection: (latitude, longitude) degrees -> ITM planar meters."""
    lat, lon = np.asarray(lat, dtype=float), np.asarray(lon, dtype=float)
    bad = _first_outside((LAT_WINDOW[0] < lat) & (lat < LAT_WINDOW[1])
                         & (LON_WINDOW[0] < lon) & (lon < LON_WINDOW[1]), lat, lon)
    if bad is not None:
        raise OutOfDomainError(
            f"geographic coordinate out of validity window: ({bad[0]}, {bad[1]})")
    xi, eta = _xi_eta(np.radians(lat), np.radians(lon - ITM.lon_origin))
    return (_result(ITM.false_easting + _K0A * eta),
            _result(ITM.false_northing + _K0A * (xi - _XI0)))
