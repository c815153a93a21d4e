#!/usr/bin/env python3
"""Measure the sectional-curvature rescaling exponent empirically.

The bracket rescaling c.mu corresponds to scaling the metric by c^2, so the
classical expectation is sec(c.mu) = c^-2 sec(mu); the source material
prints c^-1.  This script measures the exponent on the sphere example at
c in {2, 3, 5} instead of asserting either value."""

from ghl import geometry as geo
from ghl.fileio import bundled_path, load_ghl
from ghl.multilinear import basis_vector


def main() -> int:
    sphere = load_ghl(bundled_path("sphere")).spec
    dom = sphere.domain
    X = basis_vector(2, 0, dom)
    Y = basis_vector(2, 1, dom)
    base = geo.sectional_curvature(sphere, sphere.Rm, X, Y)
    print(f"sec(mu)(e0,e1) = {dom.text(base)}")
    for c in (2, 3, 5):
        scaled = geo.rescale(sphere, c)
        val = geo.sectional_curvature(scaled, scaled.Rm, X, Y)
        print(f"sec({c}.mu)(e0,e1) = {dom.text(val)}")
    e = geo.rescaling_exponent(sphere)
    print(f"measured exponent: sec(c.mu) = c^-{e} sec(mu)")
    print("(printed claim in the source is c^-1; the measured value is c^-2,"
          " matching g -> c^2 g)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
