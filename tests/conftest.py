import json
from fractions import Fraction

import pytest

from seqlab.core import AmbientSpace, Seq, Subspace


def unit_subspace(space: AmbientSpace, dim: int, t: int, exact: bool = None):
    """span{e_1, ..., e_dim} at truncation t."""
    if exact is None:
        exact = space.is_sup or space.p == 1
    gens = [Seq.unit(j, t, exact) for j in range(1, dim + 1)]
    return Subspace.build(space, gens)


def banded_lp_subspace(dim: int = 40, t: int = 2000, gamma: float = 1e-6,
                       beta: float = 5e-8, rho: float = 0.9, p=2):
    """Float-mode lp fixture with overlapping bands and a shared decaying
    tail: v_i = e_i + gamma*e_{i+1} + beta*u, u(j) = rho^(j-dim) beyond dim.

    The band overlap makes the zeroing corrections genuinely nonzero
    while keeping them far inside the eps/2^k budgets.
    """
    gens = []
    u = [0.0] * t
    for j in range(dim + 1, t + 1):
        u[j - 1] = rho ** (j - dim)
    for i in range(1, dim + 1):
        coords = [0.0] * t
        coords[i - 1] = 1.0
        if i < t:
            coords[i] = gamma
        for j in range(dim + 1, t + 1):
            coords[j - 1] += beta * u[j - 1]
        gens.append(Seq(tuple(coords), False, 0.0))
    return Subspace.build(AmbientSpace.lp(p), gens)


def scaled_unit_c0_subspace(dim: int = 36, t: int = 96, ratio=Fraction(1, 2)):
    """c0 fixture of scaled units v_i = ratio^i e_i: random span elements
    decay coordinatewise, so deep markers carry tiny values."""
    gens = []
    for i in range(1, dim + 1):
        coords = [Fraction(0)] * t
        coords[i - 1] = ratio ** i
        gens.append(Seq(tuple(coords), True, Fraction(0)))
    return Subspace.build(AmbientSpace.c0(), gens)


def tailed_linf_subspace(dim: int = 24, t: int = 120, *,
                         tail_scale=Fraction(1, 5),
                         constant_tail_from: int = 60):
    """linf fixture: unit vectors plus two bounded-tail generators (one
    geometric, one constant) to diversify the cascade cases."""
    gens = [Seq.unit(j, t, True) for j in range(1, dim + 1)]
    geo = [Fraction(0)] * t
    r = Fraction(3, 5)
    for j in range(dim + 1, t + 1):
        geo[j - 1] = tail_scale * r ** (j - dim)
    gens.append(Seq(tuple(geo), True, Fraction(0)))
    const = [Fraction(0)] * t
    for j in range(constant_tail_from, t + 1):
        const[j - 1] = tail_scale
    gens.append(Seq(tuple(const), True, Fraction(0)))
    return Subspace.build(AmbientSpace.linf(), gens)


def fixture_json(space_json: dict, t: int, generators: list) -> dict:
    return {"space": space_json, "truncation": t, "generators": generators}


def write_fixture(tmp_path, name: str, obj: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def coord_l2_40():
    return unit_subspace(AmbientSpace.lp(2), 40, 2000)


@pytest.fixture
def coord_linf_30():
    return unit_subspace(AmbientSpace.linf(), 30, 120)
