import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmapoly.core import FoldFold, PolyField, SwitchingFunction, Tangency, classify_sigma_point
from sigmapoly.errors import InExclusionSet, NoReturn
from sigmapoly.flow import Section
from sigmapoly.maps import (
    SectionConfig,
    connection_diffeo,
    exclusion_set,
    fit_germ,
    mirror_map,
    place_section,
    sigma_contacts,
    sigma_domain,
    transfer_pair,
    transition_germ,
    transition_map,
)
from sigmapoly.poly2 import poly_const, poly_x, poly_y

from conftest import make_system

SEC_X1 = Section(anchor=(1.0, 0.0), direction=(0.0, 1.0), halfwidth=2.0)


# -- transition maps ---------------------------------------------------------


def test_transition_map_fold_oracle(fold_field, h_y):
    # X = (1, x): orbit through (x, 0) hits {x = 1} at height (1 - x^2)/2
    for x in (-0.5, -0.1, 0.0, 0.3, 0.7):
        got = transition_map(fold_field, h_y, SEC_X1, x)
        assert got == pytest.approx((1 - x**2) / 2, abs=1e-9)


def test_transition_germ_fold(fold_field, h_y):
    g = transition_germ(fold_field, h_y, SEC_X1, 0.0, 2, 0.3)
    assert g.coeffs[0] == pytest.approx(0.5, abs=1e-9)
    assert g.coeffs[1] == pytest.approx(0.0, abs=1e-8)
    assert g.kappa == pytest.approx(-0.5, rel=1e-7)
    assert g.residual <= 1e-7 * max(g.window, 1e-12) ** g.degree


def test_transition_germ_cusp(cusp_field, h_y):
    # X = (1, x^2): exact map onto {x = 1} is 1/3 - x^3/3
    g = transition_germ(cusp_field, h_y, SEC_X1, 0.0, 3, 0.3)
    assert g.coeffs[0] == pytest.approx(1 / 3, abs=1e-9)
    assert g.coeffs[1] == pytest.approx(0.0, abs=1e-7)
    assert g.coeffs[2] == pytest.approx(0.0, abs=1e-6)
    assert g.kappa == pytest.approx(-1 / 3, rel=1e-5)


def test_germ_half_window_stability(fold_field, h_y):
    g1 = transition_germ(fold_field, h_y, SEC_X1, 0.0, 2, 0.05)
    g2 = transition_germ(fold_field, h_y, SEC_X1, 0.0, 2, 0.025)
    assert abs(g1.kappa - g2.kappa) < 0.01 * abs(g1.kappa)


def test_fit_germ_recovers_exact_polynomial():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=4)
    xs = np.linspace(-0.4, 0.6, 17)
    samples = [(x, np.polynomial.polynomial.polyval(x - 0.1, coeffs)) for x in xs]
    g = fit_germ(samples, 0.1, 3)
    assert np.allclose(g.coeffs, coeffs, atol=1e-10)
    assert g.residual < 1e-10


def test_germ_roundtrip_dict(fold_field, h_y):
    g = transition_germ(fold_field, h_y, SEC_X1, 0.0, 2, 0.3)
    g2 = type(g).from_dict(g.to_dict())
    assert g2 == g


# -- mirror maps --------------------------------------------------------------


def test_mirror_fold_oracle(fold_field, h_y):
    for x in (-0.7, -0.2, 0.2, 0.9):
        assert mirror_map(fold_field, h_y, x, side=-1) == pytest.approx(
            -x, abs=1e-8
        )


def test_mirror_fixed_point_at_invisible_contact(fold_field, h_y):
    # the parabola opens upward, so the contact is invisible from above
    assert mirror_map(fold_field, h_y, 0.0, side=1) == 0.0
    with pytest.raises(InExclusionSet):
        mirror_map(fold_field, h_y, 0.0, side=-1)


def test_mirror_refused_at_cusp(cusp_field, h_y):
    with pytest.raises(InExclusionSet):
        mirror_map(cusp_field, h_y, 0.0, side=-1)
    # orbits near a cusp cross Sigma once only: no return on either side
    with pytest.raises(NoReturn):
        mirror_map(cusp_field, h_y, -0.3, side=-1, tmax=5.0)


def test_mirror_pitchfork(pitchfork_field, h_y):
    # orbit through (0.5, 0): y = (x^2 - 1)^2/4 - 0.140625, lower arc ends
    # at the outer root sqrt(1.75)
    r = mirror_map(pitchfork_field, h_y, 0.5, side=-1)
    assert r == pytest.approx(np.sqrt(1.75), abs=1e-8)
    assert mirror_map(pitchfork_field, h_y, r, side=-1) == pytest.approx(
        0.5, abs=1e-7
    )
    assert mirror_map(pitchfork_field, h_y, 0.0, side=-1) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(-0.5, 0.5),
    d=st.floats(0.05, 0.8),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_mirror_is_involution(c, d, sign):
    F = PolyField(poly_const(1.0), poly_x() - poly_const(c))
    from sigmapoly.poly2 import poly_y
    from sigmapoly.core import SwitchingFunction

    h = SwitchingFunction(poly_y())
    x = c + sign * d
    r = mirror_map(F, h, x, side=-1)
    assert r == pytest.approx(2 * c - x, abs=1e-7)
    assert mirror_map(F, h, r, side=-1) == pytest.approx(x, abs=1e-6)


# -- exclusion sets and sigma domains ----------------------------------------


def test_exclusion_set_fold(fold_field, h_y):
    # even contact visible from below: excluded for lower arcs
    e = exclusion_set(fold_field, h_y, (-1.0, 1.0), side=-1)
    assert np.allclose(e, [0.0], atol=1e-9)


def test_exclusion_set_cusp(cusp_field, h_y):
    # the cusp is a double root of Fh = x^2: Fh does not change sign there
    for L in (1.0, 1.5, 1.775, 2.0):
        e = exclusion_set(cusp_field, h_y, (-L, L), side=-1)
        assert len(e) == 1
        assert e[0] == pytest.approx(0.0, abs=1e-12)


def test_sigma_contacts_touching_root(h_y):
    # Fh = (x - 0.3)^2 touches zero at 0.3: the cusp moved off the origin,
    # found on Sigma = {y = 0} and, with fy raised by 0.1, on the tilted
    # Sigma = {y = 0.1 x}
    s = poly_x() + poly_const(-0.3)
    F = PolyField(poly_const(1.0), s * s + poly_const(0.1))
    tilted = SwitchingFunction(poly_y() + poly_x().scale(-0.1))
    F_flat = PolyField(poly_const(1.0), s * s)
    for field, h in ((F_flat, h_y), (F, tilted)):
        contacts = sigma_contacts(field, h, (-1.0, 1.0))
        assert len(contacts) == 1
        x, order, _ = contacts[0]
        assert x == pytest.approx(0.3, abs=1e-9)
        assert order == 3
    # a fold exactly on either end of the window: Fh = x - c, c = -1 or 1,
    # on Sigma = {y = 0} from X = (1, x - c) and on the tilted Sigma from
    # X = (10, x - c + 1); both ends are found, and both are excluded
    for c in (-1.0, 1.0):
        on_y = PolyField(poly_const(1.0), poly_x() + poly_const(-c))
        on_tilted = PolyField(poly_const(10.0), poly_x() + poly_const(1.0 - c))
        for field, h in ((on_y, h_y), (on_tilted, tilted)):
            assert sigma_contacts(field, h, (-1.0, 1.0)) == [(c, 2, 1)]
            assert exclusion_set(field, h, (-1.0, 1.0), side=-1) == [c]


def test_exclusion_set_pitchfork(pitchfork_field, h_y):
    # visible folds at +-1; the invisible fold at 0 is allowed
    e = exclusion_set(pitchfork_field, h_y, (-2.0, 2.0), side=-1)
    assert np.allclose(sorted(e), [-1.0, 1.0], atol=1e-7)


def test_exclusion_set_pitchfork_keeps_each_point_once(pitchfork_field, h_y):
    # the orbit through -1 touches Sigma again at 1; that touch used to be
    # kept next to the contact 1 itself, an ulp apart
    e = exclusion_set(pitchfork_field, h_y, (-1.775, 1.775), side=-1)
    assert len(e) == 2
    assert np.allclose(e, [-1.0, 1.0], atol=1e-9)


def test_sigma_domain_visible_fold(fold_field, h_y):
    tau = place_section(fold_field, (0.0, 0.0), distance=0.3, direction="forward")
    dom = sigma_domain(fold_field, h_y, (0.0, 0.0), tau, 0.2, side=1)
    assert len(dom) == 1
    lo, hi = dom[0]
    assert lo == 0.0  # the fold itself: Fh = x changes sign there
    assert hi > 0.16


# -- transfer pairs -----------------------------------------------------------


def test_transfer_case_o_fold():
    Z = make_system(poly_x(), poly_const(1.0))
    assert isinstance(classify_sigma_point(Z, (0.0, 0.0)), Tangency)
    pair = transfer_pair(Z, (0.0, 0.0), SectionConfig(halfwidth=0.3))
    # kappa = -1/2 up to the mild distortion of the placed-section chart
    assert pair.case_tag == "O"
    assert pair.Tu.kappa == pytest.approx(-0.5, rel=0.02)
    assert pair.Ts.degree == 1 and pair.Ts.coeffs[1] < 0
    assert len(pair.sigma) == 1


def test_transfer_case_ei_is_linear():
    Z = make_system(poly_x(), poly_const(1.0))
    pair = transfer_pair(Z, (0.0, 0.0), SectionConfig(same_side=True))
    assert pair.case_tag == "EI"
    assert pair.Tu.degree == 1
    assert pair.Ts.degree == 1
    assert pair.Tu.coeffs[1] != 0.0
    assert pair.Ts.coeffs[1] != 0.0


def test_transfer_case_eii_vi_foldfold():
    Z = make_system(poly_x(), poly_x())
    cls = classify_sigma_point(Z, (0.0, 0.0))
    assert isinstance(cls, FoldFold) and cls.kind == "VI"
    pair = transfer_pair(Z, (0.0, 0.0))
    assert pair.case_tag == "EII"
    assert pair.alpha == pytest.approx(0.0, abs=1e-9)
    assert pair.Tu.kappa > 0 and pair.Ts.kappa > 0
    assert pair.excluded == (0.0,)
    lo, hi = pair.sigma[0]
    assert lo < hi <= 0.0


def test_transfer_eii_factorizes_through_mirror():
    # Tu must equal T+ o rho_Y (up to the chart flip recorded in the germ)
    Z = make_system(poly_x(), poly_x())
    tau_u = place_section(Z.X, (0.0, 0.0), distance=0.1, direction="forward")
    tau_s = place_section(Z.X, (0.0, 0.0), distance=0.1, direction="backward")
    pair = transfer_pair(Z, (0.0, 0.0), SectionConfig(tau_u=tau_u, tau_s=tau_s))
    sgn = -1.0 if pair.Tu.chart.get("flipped") else 1.0
    for x in (-0.04, -0.02, -0.005):
        r = mirror_map(Z.Y, Z.h, x, side=-1)
        direct = transition_map(Z.X, Z.h, tau_u, r, "forward")
        assert sgn * pair.Tu(x) == pytest.approx(direct, abs=1e-8)


# -- connection diffeomorphisms -----------------------------------------------


def test_connection_diffeo_across_crossing():
    # X = Y = (1, 1): straight lines of slope one crossing Sigma transversally
    Z = make_system(poly_const(1.0), poly_const(1.0))
    tau_from = Section(anchor=(-1.0, 0.0), direction=(0.0, 1.0), halfwidth=3.0)
    tau_to = Section(anchor=(1.0, 0.0), direction=(0.0, 1.0), halfwidth=3.0)
    for y in (-0.5, -0.1, 0.0, 0.2, 0.5):
        got = connection_diffeo(Z, tau_from, tau_to, y)
        assert got == pytest.approx(y + 2.0, abs=1e-8)
    # X = (1, -0.5), Y = (1, -2): from y = 0 on Sigma only Y leaves (into M-)
    # and runs down to -4; from 0.25 X crosses at x = -0.5 and Y runs on to -3
    Z = make_system(poly_const(-0.5), poly_const(-2.0))
    tau_to = Section(anchor=(1.0, 0.0), direction=(0.0, 1.0), halfwidth=5.0)
    for y, want in ((0.0, -4.0), (0.25, -3.0)):
        assert connection_diffeo(Z, tau_from, tau_to, y) == pytest.approx(want, abs=1e-8)


# -- section placement and Sigma domains ------------------------------------


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("distance", [0.1, 0.3, 1.0])
def test_place_section_exact_arclength(fold_field, direction, distance):
    # X = (1, x) from the origin runs along y = s^2/2, whose arclength from
    # 0 to s is L(s) = (s sqrt(1 + s^2) + asinh s)/2
    tau = place_section(fold_field, (0.0, 0.0), distance=distance, direction=direction)
    s = tau.anchor[0]
    assert np.sign(s) == (1.0 if direction == "forward" else -1.0)
    assert tau.anchor[1] == pytest.approx(s * s / 2, abs=1e-12)
    length = (abs(s) * np.sqrt(1 + s * s) + np.arcsinh(abs(s))) / 2
    assert length == pytest.approx(distance, abs=1e-10)
    # the chart runs along the left normal of the field
    v = np.array([1.0, s]) / np.hypot(1.0, s)
    assert tau.direction == pytest.approx((-v[1], v[0]), abs=1e-12)


def test_sigma_domain_edge_at_an_interior_tangency(h_y):
    # X = (1, g(x)), g = x^4 - 0.5 x^2 + 0.02 x: orbits are y = G(s) - G(x)
    # with G' = g.  G has a local maximum at c = 0.0401292..., where the
    # orbits touch Sigma from below; an arc from x < 0 stays below Sigma
    # up to the section iff G(x) >= G(c), so the domain ends at the root
    # of G(x) = G(c) near -0.02.  Right of c the arcs leave downward.
    x = poly_x()
    F = PolyField(poly_const(1.0), x * x * x * x - poly_const(0.5) * x * x + poly_const(0.02) * x)
    tau = Section(anchor=(0.6, 0.05), direction=(0.0, 1.0), halfwidth=1.0)
    dom = sigma_domain(F, h_y, (0.0, 0.0), tau, 0.5, side=-1)
    assert len(dom) == 2
    (lo1, hi1), (lo2, hi2) = dom
    assert lo1 == -0.5 and hi2 == 0.5
    assert hi1 == pytest.approx(-0.0200354436140659, abs=1e-9)
    assert lo2 == pytest.approx(0.0401292447630533, abs=1e-10)


def test_sigma_domain_fold_arcs_leave_upward(fold_field, h_y):
    # X = (1, x): an arc from x < 0 dips below Sigma and returns at -x
    # before the section; from x >= 0 it leaves into {y > 0}
    tau = Section(anchor=(0.6, 0.05), direction=(0.0, 1.0), halfwidth=1.0)
    assert sigma_domain(fold_field, h_y, (0.0, 0.0), tau, 0.5, side=-1) == []


@pytest.mark.parametrize(
    "fx, fy, want",
    [
        (poly_x(), poly_x(), "fold"),  # an equilibrium on Sigma at the origin
        (poly_const(1.0), poly_const(0.0), []),  # Sigma invariant: Fh = 0 everywhere on it
        (poly_const(1.0), poly_y(), []),  # Sigma invariant, Fh = y
    ],
)
def test_sigma_domain_leaves_out_starts_with_no_arc(h_y, fx, fy, want):
    # a start from which no arc leaves Sigma is not in the domain.  X = (x, x)
    # has orbits y = x - x0, leaving upward for x0 > 0 and reaching y = 0.5 at
    # x0 + 0.5, inside the segment; the domain runs from the equilibrium on.
    tau = Section(anchor=(0, 0.5), direction=(1, 0), halfwidth=1)
    dom = sigma_domain(PolyField(fx, fy), h_y, (0.0, 0.0), tau, 0.2, side=1)
    if want == "fold":
        assert len(dom) == 1
        lo, hi = dom[0]
        assert 0.0 < lo <= 1e-10 and hi == 0.2
    else:
        assert dom == want
