"""Built-in profile curves with known ground truth.

The catenoid and the sphere are the two surfaces of revolution whose
position vector satisfies Laplacian(x) = A x with respect to the third
form (null matrix and twice the identity respectively); the torus is the
negative control.  A deliberately broken profile is included for negative
validation tests.

Each profile text is parsed once, when this module is imported, into a
module constant, and every entry of a kind shares its two trees: the
parameters are `Param` nodes, bound at evaluation from the curve's
``params``, so one tree serves every parameter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .classify import VERDICT_NOT, VERDICT_NULL, VERDICT_SPHERE
from .expressions import parse
from .geometry import ProfileCurve, _finite

# Half-width of the exclusion collars around the torus parabolic circles,
# as a fraction of the tube radius; clears the default parabolicity
# tolerance with an order of magnitude to spare.
_TORUS_COLLAR = 0.02

# Polar collar on the sphere, as a fraction of the radius; the operator
# formulas degenerate 0/0 at the poles.
_SPHERE_COLLAR = 0.05

# The profiles' f and g, parsed from their texts once.
_CATENOID_F = parse("sqrt(c^2 + s^2)")
_CATENOID_G = parse("c * asinh(s / c)")
_SPHERE_F = parse("r * sin(s / r)")
_SPHERE_G = parse("-r * cos(s / r)")
_TORUS_F = parse("R + r * cos(s / r)")
_TORUS_G = parse("r * sin(s / r)")
_DIAGONAL = parse("s")


def _fmt(x: float) -> str:
    """``x`` for a surface label: ``:g`` when that reads back as ``x``,
    ``repr`` otherwise, so a label names exactly the surface it labels."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    curve: ProfileCurve
    description: str
    expected_verdict: Optional[str] = None
    known_matrix: Optional[tuple[tuple[float, ...], ...]] = None
    valid: bool = True


def catenoid(c: float = 1.0, half_width: Optional[float] = None) -> CatalogEntry:
    """Minimal surface of revolution; the fitted matrix is the null matrix."""
    if c <= 0.0:
        raise ValueError("catenoid waist radius must be positive")
    hw = 2.0 * c if half_width is None else float(half_width)
    if hw <= 0.0:
        raise ValueError("half_width must be positive")
    width = "" if half_width is None else f",half_width={_fmt(hw)}"
    curve = ProfileCurve.build(
        name=f"catenoid(c={_fmt(c)}{width})",
        f=_CATENOID_F,
        g=_CATENOID_G,
        s_min=-hw,
        s_max=hw,
        params={"c": c},
    )
    return CatalogEntry(
        name="catenoid",
        curve=curve,
        description="catenary profile; mean curvature vanishes identically",
        expected_verdict=VERDICT_NULL,
        known_matrix=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    )


def sphere(r: float = 1.0) -> CatalogEntry:
    """Sphere of radius r centred at the origin, poles excluded by a collar;
    the fitted matrix is twice the identity."""
    if r <= 0.0:
        raise ValueError("sphere radius must be positive")
    delta = _SPHERE_COLLAR * r
    curve = ProfileCurve.build(
        name=f"sphere(r={_fmt(r)})",
        f=_SPHERE_F,
        g=_SPHERE_G,
        s_min=delta,
        s_max=math.pi * r - delta,
        params={"r": r},
    )
    return CatalogEntry(
        name="sphere",
        curve=curve,
        description="great-circle profile; H = 1/r, K = 1/r^2",
        expected_verdict=VERDICT_SPHERE,
        known_matrix=((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)),
    )


def torus(major: float = 3.0, minor: float = 1.0) -> CatalogEntry:
    """Ring torus; no constant matrix fits its coordinate Laplacian.

    The circles where sin(phi) = 0 are parabolic; the entry declares
    exclusion collars around them so the remaining domain is regular.
    """
    if not major > minor > 0.0:
        raise ValueError("torus requires major radius > minor radius > 0")
    collar = _TORUS_COLLAR * minor
    half = math.pi * minor
    curve = ProfileCurve.build(
        name=f"torus(R={_fmt(major)},r={_fmt(minor)})",
        f=_TORUS_F,
        g=_TORUS_G,
        s_min=-half,
        s_max=half,
        params={"R": major, "r": minor},
        excluded=(
            (-0.5 * half - collar, -0.5 * half + collar),
            (0.5 * half - collar, 0.5 * half + collar),
        ),
    )
    return CatalogEntry(
        name="torus",
        curve=curve,
        description="circular tube profile; negative control for the fit",
        expected_verdict=VERDICT_NOT,
    )


def broken_diagonal() -> CatalogEntry:
    """Deliberately invalid profile f = g = s (arclength defect 1)."""
    curve = ProfileCurve.build(
        name="broken-diagonal",
        f=_DIAGONAL,
        g=_DIAGONAL,
        s_min=-1.0,
        s_max=1.0,
    )
    return CatalogEntry(
        name="broken-diagonal",
        curve=curve,
        description="violates arclength parametrization; for negative tests",
        valid=False,
    )


_FACTORIES: dict[str, tuple[Callable[..., CatalogEntry], dict[str, str]]] = {
    # entry name -> (factory, CLI parameter name -> factory keyword)
    "catenoid": (catenoid, {"c": "c", "half_width": "half_width"}),
    "sphere": (sphere, {"r": "r"}),
    "torus": (torus, {"R": "major", "r": "minor"}),
    "broken-diagonal": (broken_diagonal, {}),
}


def names() -> list[str]:
    return sorted(_FACTORIES)


def make(name: str, params: Optional[dict] = None) -> CatalogEntry:
    """Instantiate a catalog entry by name with CLI-style parameters."""
    try:
        factory, mapping = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown catalog surface {name!r}; available: {', '.join(names())}"
        ) from None
    kwargs = {}
    for key, value in (params or {}).items():
        if key not in mapping:
            allowed = ", ".join(sorted(mapping)) or "none"
            raise ValueError(
                f"surface {name!r} does not take parameter {key!r} (allowed: {allowed})"
            )
        kwargs[mapping[key]] = _finite(f"parameter {key!r}", value)
    return factory(**kwargs)
