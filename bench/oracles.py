"""Reference computations the benchmark checks the program against.

Nothing here imports sigmapoly.  Each function restates a closed form of
the paper's normal forms or of the concrete fields the workloads use, and
finds roots by its own derivative-splitting bisection, so a fault in the
program's root finders, integrators or classifiers cannot hide in both.
"""

from __future__ import annotations

import math

import numpy as np

# Normal-form constants of the packaged synthetic scenarios (the CLI builds
# each family with these defaults).
CUSP = {"kappa": -1.0, "dtilde": -1.0, "eps": 0.6}
TWOFOLD = {"kappa1": -1.0, "kappa2": 1.0, "dtilde1": 1.0, "dtilde2": 1.0, "eps": 0.6}
FOLDFOLD = {"kappa": 1.0, "dtilde": 2.0, "eps": 1.0}

# Decision tolerances of the method: a root within CURVE_TOL of a window
# end is a polycycle, and |P'| within STABILITY_GAP of 1 is left undecided.
CURVE_TOL = 1e-9
STABILITY_GAP = 1e-6


# -- root isolation -------------------------------------------------------


def _polyval(c, x: float) -> float:
    acc = 0.0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _bisect(c, a: float, b: float, fa: float) -> float:
    for _ in range(200):
        m = 0.5 * (a + b)
        if m in (a, b):
            break
        fm = _polyval(c, m)
        if fm == 0.0:
            return m
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def real_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of the polynomial with ascending coefficients.

    The critical points (roots of the derivative, found recursively) split
    [lo, hi] into monotone pieces; each piece holds at most one simple root,
    found by bisection.  A critical point where the polynomial vanishes to
    rounding is a double root.
    """
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    if len(c) <= 1:
        return []
    if len(c) == 2:
        r = -c[0] / c[1]
        return [r] if lo <= r <= hi else []
    dc = [k * c[k] for k in range(1, len(c))]
    crit = real_roots(dc, lo, hi)
    knots = [lo] + [x for x in crit if lo < x < hi] + [hi]
    roots: list[float] = []
    for a, b in zip(knots, knots[1:]):
        fa, fb = _polyval(c, a), _polyval(c, b)
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(_bisect(c, a, b, fa))
    if _polyval(c, hi) == 0.0:
        roots.append(hi)
    for x in crit:
        scale = sum(abs(a) * abs(x) ** k for k, a in enumerate(c))
        if abs(_polyval(c, x)) <= 64 * np.finfo(float).eps * max(scale, 1e-300):
            roots.append(x)
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


# -- synthetic scenarios: cell inventories --------------------------------


def stability_letter(dP: float) -> str | None:
    """'a' or 'r' from the sign of |P'| - 1; None when too close to call."""
    gap = abs(dP) - 1.0
    if abs(gap) <= STABILITY_GAP:
        return None
    return "a" if gap < 0 else "r"


def cusp_cell(lam1: float, beta: float, p=CUSP) -> tuple[list[float], int]:
    """Crossing-cycle roots and polycycle count of the regular cusp.

    Displacement kappa x^3 + (lam1 - dtilde) x + beta on (-eps, eps); for
    lam1 > 0 the roots between the mirror landing A = -2V and the visible
    fold V = sqrt(-lam1 / (3 kappa)) are sliding cycles, and roots on A or
    V are polycycles.
    """
    k, d, eps = p["kappa"], p["dtilde"], p["eps"]
    if abs(lam1) <= CURVE_TOL and abs(beta) <= CURVE_TOL:
        return [], 1
    roots = [x for x in real_roots([beta, lam1 - d, 0.0, k], -eps, eps) if -eps < x < eps]
    if lam1 <= CURVE_TOL:
        return roots, 0
    V = math.sqrt(-lam1 / (3.0 * k))
    A = -2.0 * V
    cycles, poly = [], 0
    for x in roots:
        if min(abs(x - A), abs(x - V)) <= CURVE_TOL:
            poly += 1
        elif not (A < x < V):
            cycles.append(x)
    return cycles, poly


def cusp_dP(lam1: float, x: float, p=CUSP) -> float:
    return (lam1 + 3.0 * p["kappa"] * x * x) / p["dtilde"]


def foldfold_cell(alpha: float, beta: float, p=FOLDFOLD) -> tuple[list[float], int]:
    """Crossing-cycle roots and polycycle count of the VI fold-fold.

    Displacement kappa (x - 2 alpha)^2 + beta - dtilde x^2 on the crossing
    window (-eps, zeta), zeta = min(0, 2 alpha); a root on zeta is the
    boundary polycycle.
    """
    k, d, eps = p["kappa"], p["dtilde"], p["eps"]
    if abs(alpha) <= CURVE_TOL and abs(beta) <= CURVE_TOL:
        return [], 1
    zeta = min(0.0, 2.0 * alpha)
    coeffs = [beta + 4.0 * k * alpha * alpha, -4.0 * k * alpha, k - d]
    roots = real_roots(coeffs, -eps - 1.0, zeta + 1.0)
    cycles = [x for x in roots if -eps < x < zeta - CURVE_TOL]
    poly = sum(1 for x in roots if abs(x - zeta) <= CURVE_TOL)
    return cycles, poly


def foldfold_dP(alpha: float, x: float, p=FOLDFOLD) -> float:
    return p["kappa"] * (x - 2.0 * alpha) / (p["dtilde"] * x)


def twofold_cell(b1: float, b2: float, p=TWOFOLD) -> tuple[list[tuple[float, float]], int]:
    """Crossing cycles and polycycle count of the double regular fold.

    Eliminating x2 = (b1 + kappa1 x1^2) / dtilde1 from the two-leg system
    leaves the quartic b2 + kappa2 x2(x1)^2 - dtilde2 x1 = 0 in x1.  Windows:
    x1 in [0, eps], x2 in [-eps, 0]; a solution on a window end is a
    polycycle.
    """
    k1, k2, d1, d2, eps = p["kappa1"], p["kappa2"], p["dtilde1"], p["dtilde2"], p["eps"]
    # (b1 + k1 x^2)^2 = b1^2 + 2 b1 k1 x^2 + k1^2 x^4
    s = k2 / (d1 * d1)
    quartic = [b2 + s * b1 * b1, -d2, s * 2.0 * b1 * k1, 0.0, s * k1 * k1]
    cycles, poly = [], 0
    for x1 in real_roots(quartic, -1.0, eps + 1.0):
        x2 = (b1 + k1 * x1 * x1) / d1
        if not (-CURVE_TOL <= x1 <= eps + CURVE_TOL and -eps - CURVE_TOL <= x2 <= CURVE_TOL):
            continue
        if min(abs(x1), abs(x1 - eps), abs(x2), abs(x2 + eps)) <= CURVE_TOL:
            poly += 1
        else:
            cycles.append((x1, x2))
    return cycles, poly


def twofold_dP(x1: float, x2: float, p=TWOFOLD) -> float:
    return (2.0 * p["kappa1"] * x1) * (2.0 * p["kappa2"] * x2) / (p["dtilde1"] * p["dtilde2"])


# -- synthetic scenarios: bifurcation curves -------------------------------


def cusp_curves(lam1: float, p=CUSP) -> dict[str, float]:
    """beta of the visible-fold, V-I connection and mirror-landing curves."""
    k, d = p["kappa"], p["dtilde"]
    V = math.sqrt(-lam1 / (3.0 * k))
    return {
        "Vbar": (d - lam1) * V - k * V**3,
        "Ibar": -(d + lam1) * V - k * V**3,
        "Abar": -2.0 * (d - lam1) * V + 8.0 * k * V**3,
    }


def twofold_curves(b: float, p=TWOFOLD) -> dict[str, float]:
    return {
        "gamma1": -p["kappa1"] * (b / p["dtilde2"]) ** 2,
        "gamma2": -p["kappa2"] * (b / p["dtilde1"]) ** 2,
    }


def foldfold_curves(alpha: float, p=FOLDFOLD) -> dict[str, float]:
    k, d = p["kappa"], p["dtilde"]
    a2 = alpha * alpha
    out = {"beta1": 4.0 * k * d / (k - d) * a2}
    if alpha > 0:
        out.update(beta2=-4.0 * k * a2, beta4=-k * a2)
    elif alpha < 0:
        out.update(beta3=4.0 * d * a2, beta5=d * a2)
    else:
        out = dict.fromkeys(("beta1", "beta2", "beta3", "beta4", "beta5"), 0.0)
    return out


# -- closed-form maps -------------------------------------------------------


def fold_transition(x: float, x_section: float = 1.0) -> float:
    """X = (1, x) from (x, 0) to {x = x_section}: y = (x_section^2 - x^2) / 2."""
    return (x_section * x_section - x * x) / 2.0


def linear_mirror(x: float, c: float) -> float:
    """Y = (1, x - c): orbits are parabolas symmetric about x = c."""
    return 2.0 * c - x


def pitchfork_level(x: float) -> float:
    """First integral y - H(x) of X = (1, x^3 - x): H(x) = x^4/4 - x^2/2."""
    return x**4 / 4.0 - x * x / 2.0


def pitchfork_mirror(x: float) -> float:
    """Lower-arc mirror of X = (1, x^3 - x) on {y = 0}.

    The orbit through (x, 0) is y = H(s) - H(x) with s the time-like
    abscissa; the arc in {y <= 0} runs forward when H'(x) < 0 and backward
    otherwise, and ends at the nearest other root of H(s) = H(x).
    """
    roots = real_roots([-pitchfork_level(x), 0.0, -0.5, 0.0, 0.25], -10.0, 10.0)
    slope = x**3 - x
    if slope < 0:
        ahead = [r for r in roots if r > x + 1e-12]
        return min(ahead)
    behind = [r for r in roots if r < x - 1e-12]
    return max(behind)


# -- the VI fold-fold circle field -------------------------------------------


class CircleFlow:
    """Closed-form flow of the circle scenario's X field.

    About the centre (0, c), c = 1 + beta_p, the field is theta' = 1,
    r' = r - r^3, so r(t)^2 = 1 / (1 + (r0^-2 - 1) e^(-2t)); backward in
    time an orbit outside the circle blows up where that denominator
    vanishes.
    """

    def __init__(self, beta_p: float):
        self.c = 1.0 + beta_p

    def state(self, p, t):
        """Point reached from p after time t (scalar or array)."""
        x0, y0 = float(p[0]), float(p[1]) - self.c
        r0 = math.hypot(x0, y0)
        th0 = math.atan2(y0, x0)
        t = np.asarray(t, dtype=float)
        r = 1.0 / np.sqrt(1.0 + (1.0 / (r0 * r0) - 1.0) * np.exp(-2.0 * t))
        th = th0 + t
        return r * np.cos(th), self.c + r * np.sin(th)

    def radius_after(self, r0: float, t: float) -> float:
        return 1.0 / math.sqrt(1.0 + (1.0 / (r0 * r0) - 1.0) * math.exp(-2.0 * t))

    def sigma_return(self, s: float, tmax: float = 100.0, dt: float = 2e-3):
        """Abscissa of the first downward crossing of {y = 0} after leaving (s, 0).

        None when the orbit never comes back down within tmax.  Dips that
        fall between samples are found by polishing every sampled local
        minimum of y that lies near zero.
        """
        ts = np.arange(dt, tmax + dt, dt)
        _, ys = self.state((s, 0.0), ts)

        def y_at(t):
            return float(self.state((s, 0.0), t)[1])

        events = []
        down = np.nonzero((ys[:-1] > 0) & (ys[1:] <= 0))[0]
        if down.size:
            events.append((ts[down[0]], ts[down[0] + 1]))
        mins = np.nonzero((ys[1:-1] <= ys[:-2]) & (ys[1:-1] <= ys[2:]) & (ys[1:-1] < 1e-3))[0] + 1
        for k in mins:
            if events and ts[k] > events[0][1]:
                break
            tm = _golden_min(y_at, ts[k - 1], ts[k + 1])
            if y_at(tm) < 0 and ys[k - 1] > 0:
                events.append((ts[k - 1], tm))
                break
        if not events:
            return None
        a, b = min(events)
        fa = y_at(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            fm = y_at(m)
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        x, _ = self.state((s, 0.0), 0.5 * (a + b))
        return float(x)

    def visible_fold(self) -> float:
        """The fold of X on {y = 0} near the origin: x + c (x^2 + c^2 - 1) = 0."""
        c = self.c
        return (-1.0 + math.sqrt(1.0 - 4.0 * c * c * (c * c - 1.0))) / (2.0 * c)


def _golden_min(f, a: float, b: float, iters: int = 80) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def circle_crossing_cycles(alpha_p: float, beta_p: float, span: float = 0.5, n: int = 200) -> int:
    """Crossing cycles of the circle scenario from the closed-form flow.

    A crossing cycle through (x, 0) goes down through Sigma, follows the
    Y-parabola to the mirror point 2 alpha_p - x, and returns under X to x.
    The crossing window ends at zeta = min(fold, 2 alpha_p - fold); the
    count is the number of sign changes of P(x) - x on (zeta - span, zeta).
    """
    flow = CircleFlow(beta_p)
    fold = flow.visible_fold()
    zeta = min(fold, 2.0 * alpha_p - fold)
    xs = np.linspace(zeta - span, zeta - 1e-6, n)
    g = []
    for x in xs:
        back = flow.sigma_return(linear_mirror(float(x), alpha_p))
        g.append(np.nan if back is None else back - x)
    g = np.asarray(g)
    ok = np.isfinite(g[:-1]) & np.isfinite(g[1:])
    return int(np.sum(ok & (np.sign(g[:-1]) * np.sign(g[1:]) < 0)))


def saddle_node_ratio(kappa: float, dtilde: float) -> float:
    """Leading-order beta1 / alpha^2 of the VI fold-fold saddle-node curve."""
    return 4.0 * kappa * dtilde / (kappa - dtilde)
