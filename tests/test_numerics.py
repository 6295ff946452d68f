import pytest

from oddspin.errors import PreconditionError
from oddspin.numerics import (
    boundary_degrees,
    mukai_profile,
    rho,
    scorza_genus,
    theta_counts,
)
from oddspin.picard import theta_pencil_profile


def test_rho_values():
    assert rho(12, 4, 14) == 2
    assert rho(11, 4, 14) == 6
    for g, d in ((5, 3), (9, 7)):
        assert rho(g, 0, d) == d


def test_theta_counts():
    assert (theta_counts(3).n_even, theta_counts(3).n_odd) == (36, 28)
    assert (theta_counts(1).n_even, theta_counts(1).n_odd) == (3, 1)
    for g in range(1, 21):
        counts = theta_counts(g)
        assert counts.total == 4 ** g


def test_boundary_degrees_values():
    assert boundary_degrees(3, 1) == (10, 18)
    assert boundary_degrees(3, 0) == (16, 6)
    assert boundary_degrees(3, 1)[0] + boundary_degrees(3, 1)[1] == 28
    assert boundary_degrees(3, 0)[0] + 2 * boundary_degrees(3, 0)[1] == 28


def test_boundary_degree_fiber_identities():
    for g in range(3, 17):
        n = theta_counts(g).n_odd
        for i in range(g // 2 + 1):
            deg_a, deg_b = boundary_degrees(g, i)
            if i == 0:
                assert deg_a + 2 * deg_b == n
            else:
                assert deg_a + deg_b == n
    with pytest.raises(PreconditionError):
        boundary_degrees(6, 4)
    # below genus 2 the closed forms are not integers: (1, 0.0) at (1, 0)
    for g in (1, 0):
        with pytest.raises(PreconditionError):
            boundary_degrees(g, 0)


def test_scorza_genus_closed_form():
    assert scorza_genus(3) == 19
    assert scorza_genus(4) == 37
    # oracle for g = 10: adjunction with t^2 = 2(g-1)^2 + 2(g-1), t.K = 4g(g-1)
    g = 10
    t_sq = 2 * (g - 1) ** 2 + 2 * (g - 1)
    t_k = 4 * g * (g - 1)
    assert 1 + (t_sq + t_k) // 2 == 271
    assert scorza_genus(10) == 271
    for g in range(3, 31):
        assert scorza_genus(g) == 3 * g * (g - 1) + 1
    with pytest.raises(PreconditionError, match=r"^Scorza genus needs g >= 3$"):
        scorza_genus(2)


def test_theta_pencil_profile():
    for g in range(3, 31):
        profile = theta_pencil_profile(g)
        assert profile.curve.pairing("lambda") == g + 1
        assert profile.curve.pairing("alpha0") == 4 * g + 20
        assert profile.curve.pairing("beta0") == g - 1
        assert profile.discriminant_degree == 6 * g + 18
        # oracle: 2(g-1) + (4g+20) = 6g+18 is a polynomial identity
        assert 2 * (g - 1) + (4 * g + 20) == 6 * g + 18
        assert profile.decomposition_ok
        assert profile.canonical_pairing == 2 * g - 24


def test_mukai_profiles():
    table = {7: (10, 15, 9), 8: (8, 14, 7), 9: (6, 13, 5), 10: (5, 13, 4)}
    for g, (dim_v, n_g, max_delta) in table.items():
        profile = mukai_profile(g)
        assert (profile.dim_v, profile.n_g, profile.max_delta_dominant) == (
            dim_v, n_g, max_delta,
        )
        assert profile.n_g - g + 2 == profile.dim_v
    with pytest.raises(PreconditionError):
        mukai_profile(11)
