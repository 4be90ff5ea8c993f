import math

import numpy as np
import pytest

from oracle_tm import itm_oracle
from spatialcpf.errors import OutOfDomainError
from spatialcpf.geodesy import ITM, itm_to_wgs84, wgs84_to_itm

# Frozen oracle values (Redfearn + quadrature, see oracle_tm.py):
#   forward(53.349805, -6.260310) and inverse(715000, 734000)
CONTROL_GEO = (53.349805, -6.260310)
CONTROL_ITM = (715825.827311, 734698.132703)
CONTROL_ITM_IN = (715000.0, 734000.0)
CONTROL_GEO_OUT = (53.343713908446, -6.272961149071)

EARTH_RADIUS_M = 6371008.8  # mean Earth radius


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters between two (degree) coordinates."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    h = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2) ** 2
    return float(2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)))


def test_false_origin_maps_to_projection_origin():
    lat, lon = itm_to_wgs84(600000.0, 750000.0)
    assert lat == pytest.approx(53.5, abs=1e-9)
    assert lon == pytest.approx(-8.0, abs=1e-9)
    e, n = wgs84_to_itm(53.5, -8.0)
    assert e == pytest.approx(600000.0, abs=1e-4)
    assert n == pytest.approx(750000.0, abs=1e-4)


def test_central_meridian_maps_to_false_easting():
    for lat in (52.0, 53.5, 55.0):
        e, _ = wgs84_to_itm(lat, -8.0)
        assert e == pytest.approx(600000.0, abs=1e-4)


def test_frozen_control_point_forward():
    e, n = wgs84_to_itm(*CONTROL_GEO)
    assert e == pytest.approx(CONTROL_ITM[0], abs=0.01)
    assert n == pytest.approx(CONTROL_ITM[1], abs=0.01)


def test_frozen_control_point_inverse():
    lat, lon = itm_to_wgs84(*CONTROL_ITM_IN)
    assert lat == pytest.approx(CONTROL_GEO_OUT[0], abs=1e-7)
    assert lon == pytest.approx(CONTROL_GEO_OUT[1], abs=1e-7)


def test_live_oracle_agreement_on_grid():
    oracle = itm_oracle()
    for lat in np.linspace(51.6, 55.3, 5):
        for lon in np.linspace(-10.3, -5.6, 5):
            e1, n1 = wgs84_to_itm(lat, lon)
            e2, n2 = oracle.forward(lat, lon)
            assert abs(e1 - e2) < 1e-4 and abs(n1 - n2) < 1e-4


def test_round_trip_grid():
    for e in np.linspace(440000, 760000, 10):
        for n in np.linspace(530000, 960000, 10):
            lat, lon = itm_to_wgs84(e, n)
            e2, n2 = wgs84_to_itm(lat, lon)
            assert abs(e2 - e) < 1e-4 and abs(n2 - n) < 1e-4
            lat2, lon2 = itm_to_wgs84(e2, n2)
            assert abs(lat2 - lat) < 1e-9 and abs(lon2 - lon) < 1e-9


def test_northing_increases_with_latitude():
    northings = [wgs84_to_itm(lat, -8.0)[1] for lat in np.linspace(51.5, 55.4, 40)]
    assert all(b > a for a, b in zip(northings, northings[1:]))


def test_scale_at_central_meridian():
    # Finite-difference projected distance over geodesic distance.
    lat = 53.2
    h = 1e-4
    _, n1 = wgs84_to_itm(lat - h, -8.0)
    _, n2 = wgs84_to_itm(lat + h, -8.0)
    # Meridian arc length on GRS80 between the two latitudes.
    f = 1 / 298.257222101
    e2 = f * (2 - f)
    phi = math.radians(lat)
    m_radius = 6378137.0 * (1 - e2) / (1 - e2 * math.sin(phi) ** 2) ** 1.5
    geodesic = m_radius * math.radians(2 * h)
    assert (n2 - n1) / geodesic == pytest.approx(ITM.scale_factor, abs=1e-9)


def test_out_of_domain_errors():
    with pytest.raises(OutOfDomainError):
        itm_to_wgs84(-5.0, 750000.0)
    with pytest.raises(OutOfDomainError):
        itm_to_wgs84(600000.0, 2e6)
    with pytest.raises(OutOfDomainError):
        wgs84_to_itm(40.0, -8.0)
    with pytest.raises(OutOfDomainError):
        wgs84_to_itm(53.5, 3.0)


def test_array_call_matches_scalar_calls():
    rng = np.random.default_rng(0)
    easting = rng.uniform(420000, 770000, 500)
    northing = rng.uniform(520000, 970000, 500)
    lat, lon = itm_to_wgs84(easting, northing)
    assert lat.shape == lon.shape == (500,)
    scalar = np.array([itm_to_wgs84(e, n) for e, n in zip(easting.tolist(), northing.tolist())])
    assert all(type(v) is float for v in itm_to_wgs84(easting[0], northing[0]))
    np.testing.assert_allclose(lat, scalar[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(lon, scalar[:, 1], rtol=0, atol=1e-12)
    e, n = wgs84_to_itm(lat, lon)
    scalar = np.array([wgs84_to_itm(a, b) for a, b in zip(lat.tolist(), lon.tolist())])
    assert all(type(v) is float for v in wgs84_to_itm(lat[0], lon[0]))
    np.testing.assert_allclose(e, scalar[:, 0], rtol=0, atol=1e-6)
    np.testing.assert_allclose(n, scalar[:, 1], rtol=0, atol=1e-6)


def test_out_of_range_array_names_first_bad_pair():
    easting = np.array([600000.0, 2_000_000.0, 600000.0, -1.0])
    northing = np.array([750000.0, 750000.0, 2e6, 750000.0])
    with pytest.raises(OutOfDomainError,
                       match=r"out of range: easting=2000000\.0, northing=750000\.0$"):
        itm_to_wgs84(easting, northing)
    with pytest.raises(OutOfDomainError, match="non-finite"):
        itm_to_wgs84(np.array([600000.0, np.nan, 2e6]), np.full(3, 750000.0))
    with pytest.raises(OutOfDomainError, match=r"window: \(53\.5, 3\.0\)$"):
        wgs84_to_itm(np.array([53.0, 53.5, 40.0]), np.array([-8.0, 3.0, -8.0]))


def test_haversine_identity_and_symmetry():
    assert haversine_m(53.0, -8.0, 53.0, -8.0) == 0.0
    d1 = haversine_m(53.0, -8.0, 54.0, -7.0)
    d2 = haversine_m(54.0, -7.0, 53.0, -8.0)
    assert d1 == pytest.approx(d2)
    assert 100_000 < d1 < 200_000
