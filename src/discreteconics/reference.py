"""Independent oracles that tests and the benchmark compare the library with.

None of this is on a CLI path: the implicit quadratic form of a pencil
member, the rational closed form of a discrete conic on the t = 1 member,
and the homography fitted to four point correspondences.  Each is written
apart from the code it checks, so a fault in one does not hide in the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateConfiguration, FormulaPole
from .kernel import (Point, ProjectiveMap, _adjugate3, _centroid, _triangle_area_residual,
                     left_sum)
from .pencil import FocalConic
from .polygon import DiscreteConic, _check_theta_n


@dataclass(frozen=True)
class QuadraticForm:
    """Implicit conic A x^2 + B xy + C y^2 + D x + E y + G = 0."""

    A: float
    B: float
    C: float
    D: float
    E: float
    G: float

    def residual_at(self, p: Point) -> float:
        """|value| normalized by the size of the evaluated terms."""
        x, y = p.x, p.y
        terms = (self.A * x * x, self.B * x * y, self.C * y * y, self.D * x, self.E * y, self.G)
        return abs(left_sum(terms)) / max(left_sum(map(abs, terms)), 1.0)


def quadratic_form(c: FocalConic) -> QuadraticForm:
    p, t = c.p, c.t
    return QuadraticForm(
        A=1.0 - t * p * p,
        B=0.0,
        C=1.0,
        D=2.0 * p * (1.0 - t),
        E=0.0,
        G=p * p - t,
    )


def closed_form_vertices(p: float, theta: float, phi: float, n: int) -> DiscreteConic:
    """Rational closed form for a discrete conic on the t = 1 member.

    V_j = ((p - cos psi) / (p cos psi - 1), (p^2 - 1) sin psi / (p cos psi - 1))
    with psi = (j-1)*theta + phi.  The focal direction of V_j from (-p, 0) is
    exactly (cos psi, sin psi), so the equal-angle property holds by algebra.
    """
    _check_theta_n(p, theta, n, phi)
    verts = []
    for j in range(n):
        psi = j * theta + phi
        denom = p * math.cos(psi) - 1.0
        if abs(denom) < 1e-12:
            raise FormulaPole(f"denominator vanishes at vertex {j + 1}")
        verts.append(
            Point(
                (p - math.cos(psi)) / denom,
                (p * p - 1.0) * math.sin(psi) / denom,
            )
        )
    return DiscreteConic(float(p), 1.0, theta, phi, tuple(verts))


def _matmul3(x, y) -> tuple[tuple[float, float, float], ...]:
    cols = tuple(zip(*y))
    return tuple(tuple(left_sum(u * v for u, v in zip(row, col)) for col in cols) for row in x)


def _any_three_collinear(points: list[Point]) -> bool:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            for k in range(j + 1, len(points)):
                if _triangle_area_residual(points[i], points[j], points[k]) < 1e-9:
                    return True
    return False


def _hartley(points: list[Point]) -> tuple[list[tuple[float, float]], float, float, float]:
    """The points moved so that their centroid (cx, cy) is the origin and
    their mean distance from it is sqrt(2): s * (p - c), with the scale s."""
    cx, cy = _centroid(points)
    s = math.sqrt(2.0) * len(points) / left_sum(math.hypot(p.x - cx, p.y - cy) for p in points)
    return [(s * (p.x - cx), s * (p.y - cy)) for p in points], s, cx, cy


def _projective_basis(xy: list[tuple[float, float]]) -> tuple[tuple[float, float, float], ...]:
    """Matrix sending the standard projective basis to the four points: its
    columns are lambda_k * (x_k, y_k, 1), k = 1..3, and sum to (x_4, y_4, 1)."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = xy
    p = ((x1, x2, x3), (y1, y2, y3), (1.0, 1.0, 1.0))
    lam = [u * x4 + v * y4 + w for u, v, w in _adjugate3(p)]  # det(p) * p^-1 (x4, y4, 1)
    return tuple((a * lam[0], b * lam[1], c * lam[2]) for a, b, c in p)


def projective_from_correspondences(src: list[Point], dst: list[Point]) -> ProjectiveMap:
    """Unique homography sending four source points to four destination points.

    With A and B the projective-basis matrices of the source and destination
    points, the map is B * adj(A).  Both point sets are Hartley-normalized
    first (matrices T_s and T_d) and the map is T_d^-1 * B * adj(A) * T_s;
    unnormalized, the rounding of the basis matrices grows with the spread
    of the coordinates and breaks the 1e-6 projective-regularity floor on
    polygons of several hundred vertices.
    """
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("exactly four correspondences required")
    if _any_three_collinear(src) or _any_three_collinear(dst):
        raise DegenerateConfiguration("three of the four points are collinear")
    src_xy, ss, sx, sy = _hartley(src)
    dst_xy, ds, dx, dy = _hartley(dst)
    t_src = ((ss, 0.0, -ss * sx), (0.0, ss, -ss * sy), (0.0, 0.0, 1.0))
    t_dst_inv = ((1.0 / ds, 0.0, dx), (0.0, 1.0 / ds, dy), (0.0, 0.0, 1.0))
    h = _matmul3(_projective_basis(dst_xy), _adjugate3(_projective_basis(src_xy)))
    return ProjectiveMap(_matmul3(t_dst_inv, _matmul3(h, t_src)))
