"""Mutation table of the production formulas.

Each entry scales one term of one formula by 1.1 in the function's source
and names a CLI command on a catalog surface that passes as the code stands
and fails under the mutant: a `verify` check above its tolerance, or
`classify` answering `Inconclusive`, exit 2 either way.  Every row names
such a command: no term of these formulas goes unchecked.  The mutated
function replaces the original in every module that binds it, so a formula
imported by name, such as ``radii_sum_jet`` in `beltrami` and `classify`,
is mutated there too.
"""

from __future__ import annotations

import __future__
import contextlib
import inspect
import io
import textwrap
from typing import NamedTuple

import pytest

import revtype
from revtype import beltrami, classify, cli, geometry


class Mutant(NamedTuple):
    module: object
    function: str
    term: str
    old: str
    new: str
    command: str  # a command that fails under the mutant


MUTANTS = (
    Mutant(geometry, "radii_sum_jet", "R", "return R, dR", "return 1.1 * R, dR",
           "verify position-identity --catalog sphere"),
    Mutant(geometry, "radii_sum_jet", "dR", "return R, dR", "return R, 1.1 * dR",
           "verify position-identity --catalog torus"),
    Mutant(geometry, "radii_sum_jet", "1/phi'", "R = 1.0 / dphi", "R = 1.1 / dphi",
           "verify curvature-quotient --catalog catenoid"),
    Mutant(geometry, "radii_sum_jet", "f/sin(phi)", "+ f / sin_phi", "+ 1.1 * f / sin_phi",
           "verify curvature-quotient --catalog torus"),
    Mutant(geometry, "radii_sum_jet", "dR: phi''/phi'^2", "(-jets.ddphi", "(-1.1 * jets.ddphi",
           "verify radius-rate --catalog catenoid"),
    Mutant(geometry, "radii_sum_jet", "dR: cos(phi) sin(phi)", "(jets.cos_phi * sin_phi",
           "(1.1 * jets.cos_phi * sin_phi", "verify radius-rate --catalog sphere"),
    Mutant(geometry, "radii_sum_jet", "dR: f (sin phi)'", "- f * jets.dsin_phi",
           "- 1.1 * f * jets.dsin_phi", "verify position-identity --catalog torus"),
    Mutant(beltrami, "laplacian_profile_factors", "radial", "(second_beltrami(jets, (fj.v0",
           "(1.1 * second_beltrami(jets, (fj.v0", "verify eigen-system --catalog sphere"),
    Mutant(beltrami, "laplacian_profile_factors", "axial", "second_beltrami(jets, (gj.v0",
           "1.1 * second_beltrami(jets, (gj.v0", "classify --catalog sphere"),
    Mutant(beltrami, "normal_profiles", "radial a", "(-sin_phi, ", "(-1.1 * sin_phi, ",
           "verify position-identity --catalog sphere"),
    Mutant(beltrami, "normal_profiles", "radial a'", "-cos_phi * dphi)",
           "-1.1 * cos_phi * dphi)", "verify position-identity --catalog torus"),
    Mutant(beltrami, "normal_profiles", "axial a", "(cos_phi, ", "(1.1 * cos_phi, ",
           "verify position-identity --catalog sphere"),
    Mutant(beltrami, "normal_profiles", "axial a'", "-sin_phi * dphi)",
           "-1.1 * sin_phi * dphi)", "verify position-identity --catalog torus"),
    Mutant(beltrami, "first_beltrami", "u_s w_s", "return u[1] * w[1]",
           "return 1.1 * u[1] * w[1]", "verify position-identity --catalog torus"),
    Mutant(beltrami, "position_identity_residual", "R n", "- R * n[0]", "- 1.1 * R * n[0]",
           "verify position-identity --catalog sphere"),
    Mutant(beltrami, "second_beltrami", "u_ss", "-a[2] / (dphi * dphi)",
           "-1.1 * a[2] / (dphi * dphi)", "verify position-identity --catalog sphere"),
    Mutant(beltrami, "second_beltrami", "phi''", "+ (jets.ddphi / (dphi * dphi)",
           "+ (1.1 * jets.ddphi / (dphi * dphi)", "verify position-identity --catalog catenoid"),
    Mutant(beltrami, "second_beltrami", "cot(phi)", "- jets.cos_phi / sin_phi)",
           "- 1.1 * jets.cos_phi / sin_phi)", "verify position-identity --catalog torus"),
    # The theta term -u_thetatheta/sin^2(phi), which on a profile is k^2 a/sin^2(phi).
    Mutant(beltrami, "second_beltrami", "u_thetatheta", "+ k * k * a[0] /",
           "+ 1.1 * k * k * a[0] /", "verify operator-equivalence --catalog sphere"),
    Mutant(beltrami, "second_beltrami_divergence", "e11'", "2.0 * dphi * jets.ddphi",
           "2.2 * dphi * jets.ddphi", "verify operator-equivalence --catalog catenoid"),
    Mutant(beltrami, "second_beltrami_divergence", "e22'", "2.0 * sin_phi * jets.dsin_phi",
           "2.2 * sin_phi * jets.dsin_phi", "verify operator-equivalence --catalog torus"),
    Mutant(beltrami, "second_beltrami_divergence", "det': e11 e22'", "e11[0] * e22[1] +",
           "1.1 * e11[0] * e22[1] +", "verify operator-equivalence --catalog sphere"),
    Mutant(beltrami, "second_beltrami_divergence", "det': e11' e22", "+ e11[1] * e22[0]",
           "+ 1.1 * e11[1] * e22[0]", "verify operator-equivalence --catalog catenoid"),
    Mutant(beltrami, "second_beltrami_divergence", "sqrt(e)'", "det[1] / (2.0 * w0)",
           "det[1] / (2.2 * w0)", "verify operator-equivalence --catalog torus"),
    Mutant(beltrami, "second_beltrami_divergence", "cs1: w'", "(w1 * e11[0]",
           "(1.1 * w1 * e11[0]", "verify operator-equivalence --catalog sphere"),
    Mutant(beltrami, "second_beltrami_divergence", "cs1: e11'", "- w0 * e11[1]",
           "- 1.1 * w0 * e11[1]", "verify operator-equivalence --catalog catenoid"),
    Mutant(beltrami, "second_beltrami_divergence", "cs0", "cs0 = w0 / e11[0]",
           "cs0 = 1.1 * w0 / e11[0]", "verify operator-equivalence --catalog torus"),
    Mutant(beltrami, "second_beltrami_divergence", "ct0", "ct0 = w0 / e22[0]",
           "ct0 = 1.1 * w0 / e22[0]", "verify operator-equivalence --catalog sphere"),
    Mutant(beltrami, "second_beltrami_divergence", "term_s: u_s", "term_s = cs1 * a[1]",
           "term_s = 1.1 * cs1 * a[1]", "verify operator-equivalence --catalog torus"),
    Mutant(beltrami, "second_beltrami_divergence", "term_s: u_ss", "+ cs0 * a[2]",
           "+ 1.1 * cs0 * a[2]", "verify operator-equivalence --catalog sphere"),
    Mutant(beltrami, "second_beltrami_divergence", "term_theta", "term_theta = ct0 *",
           "term_theta = 1.1 * ct0 *", "verify operator-equivalence --catalog catenoid"),
    Mutant(geometry, "curvatures", "E: f'^2", "E = fj.v1 * fj.v1", "E = 1.1 * fj.v1 * fj.v1",
           "verify curvature-quotient --catalog sphere"),
    Mutant(geometry, "curvatures", "E: g'^2", "+ gj.v1 * gj.v1", "+ 1.1 * gj.v1 * gj.v1",
           "verify curvature-quotient --catalog torus"),
    Mutant(geometry, "curvatures", "G", "G = fj.v0 * fj.v0", "G = 1.1 * fj.v0 * fj.v0",
           "verify curvature-quotient --catalog catenoid"),
    Mutant(geometry, "curvatures", "L: f'g''", "L = (fj.v1 * gj.v2", "L = (1.1 * fj.v1 * gj.v2",
           "verify curvature-quotient --catalog sphere"),
    Mutant(geometry, "curvatures", "L: g'f''", "- gj.v1 * fj.v2)", "- 1.1 * gj.v1 * fj.v2)",
           "verify curvature-quotient --catalog torus"),
    Mutant(geometry, "curvatures", "N", "N = fj.v0 * gj.v1", "N = 1.1 * fj.v0 * gj.v1",
           "verify curvature-quotient --catalog catenoid"),
    Mutant(geometry, "curvatures", "H: L/E", "0.5 * (L / E", "0.5 * (1.1 * L / E",
           "verify curvature-quotient --catalog sphere"),
    Mutant(geometry, "curvatures", "H: N/G", "+ N / G)", "+ 1.1 * N / G)",
           "verify curvature-quotient --catalog torus"),
    Mutant(geometry, "curvatures", "K", "L * N / (E * G)", "1.1 * L * N / (E * G)",
           "verify curvature-quotient --catalog sphere"),
    Mutant(geometry, "_jets", "phi''", "fj.v1 * gj.v3 - gj.v1 * fj.v3",
           "1.1 * (fj.v1 * gj.v3 - gj.v1 * fj.v3)", "verify eigen-system --catalog catenoid"),
    Mutant(geometry, "_jets", "phi'': f'g'''", "fj.v1 * gj.v3 -", "1.1 * fj.v1 * gj.v3 -",
           "verify radius-rate --catalog sphere"),
    Mutant(geometry, "_jets", "phi'': g'f'''", "- gj.v1 * fj.v3", "- 1.1 * gj.v1 * fj.v3",
           "verify eigen-system --catalog sphere"),
)

def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _apply(monkeypatch, mutant: Mutant) -> None:
    """Compile ``mutant``'s function with its one term changed and bind it
    wherever the original is bound."""
    original = getattr(mutant.module, mutant.function)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(mutant.old) == 1, "the table no longer matches the source"
    namespace = dict(vars(mutant.module))
    exec(compile(source.replace(mutant.old, mutant.new), f"<mutant {mutant.term}>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    for module in (revtype, geometry, beltrami, classify, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, namespace[mutant.function])


def _id(mutant: Mutant) -> str:
    return f"{mutant.function}: {mutant.term}"


def test_every_row_names_a_command():
    assert all(mutant.command for mutant in MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=_id)
def test_mutant_fails_its_command(monkeypatch, mutant):
    argv = mutant.command.split()
    assert _exit_code(argv) == 0
    _apply(monkeypatch, mutant)
    assert _exit_code(argv) == 2


_OPERATOR_MUTANTS = tuple(m for m in MUTANTS
                          if m.function in ("second_beltrami", "second_beltrami_divergence"))


@pytest.mark.parametrize("c", ("1e-12", "1e-9", "0.01", "5", "20"))
@pytest.mark.parametrize("mutant", _OPERATOR_MUTANTS, ids=_id)
def test_operator_mutant_fails_equivalence_at_every_scale(monkeypatch, mutant, c):
    # The drawn a' and a'' scale with the point's own |phi'| and phi'^2, so
    # the terms of both operators stay comparable and every one shows, on
    # a narrow catenoid as on a wide one.  Jets scaled by the domain's base
    # frequency, floored at a span of 1e-6, hid the u_ss, cs0 and term_s:
    # u_ss rows at c = 1e-12, and an absolute draw margin found no point at
    # c = 20.
    argv = ["verify", "operator-equivalence", "--catalog", "catenoid", "--param", f"c={c}"]
    assert _exit_code(argv) == 0
    _apply(monkeypatch, mutant)
    assert _exit_code(argv) == 2


def test_scaled_dR_fails_position_identity_on_the_torus(monkeypatch):
    # Position identity takes its left side from the operator and its right
    # side from R and dR, so a wrong dR no longer cancels.
    argv = ["verify", "position-identity", "--catalog", "torus"]
    assert _exit_code(argv) == 0
    radii_sum_jet = geometry.radii_sum_jet

    def scaled(jets):
        R, dR = radii_sum_jet(jets)
        return R, 1.1 * dR

    for module in (geometry, beltrami, classify):
        if getattr(module, "radii_sum_jet", None) is radii_sum_jet:
            monkeypatch.setattr(module, "radii_sum_jet", scaled)
    assert _exit_code(argv) == 2
