"""Integer-row scans against reference implementations on combine/Seq ops.

Exact mode must give the same argmax, sign, prefix sups and ratios as
the Fraction arithmetic; float mode must give the same bits.  Scans run
on the family's nonzero columns only, so the families include all-zero
ones and columns holding only +-0.0.  The Mazur net, evaluated from its
point structure, must give the functionals of the dense net it replaced;
its precomputed pair rows and the running-max basis-constant ratio must
give the rows and values of verbatim copies of the code they replaced.
The Mazur step search, on one scan frame per step and with a ratio
ascent that rejects candidates before building them, must give what the
coordinate loop and scan_combine ascent it replaced gave, verbatim
copies of which are kept here.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import (
    AmbientSpace,
    Seq,
    Subspace,
    combine,
    load_fixture,
    norm,
    scan_combine,
    scan_prefix_sups,
    scan_rows,
)
from seqlab.errors import ConfigError, WitnessViolation
from seqlab.lineability import geometric_generator
from seqlab import linf_construction
from seqlab.linf_construction import (
    NET_RESOLUTION,
    _ascend_ratio,
    _halving_step,
    _net_functionals,
    _scan_frame,
    default_eps_seq,
    mazur_basic_sequence,
    sample_basis_inequality,
)
from seqlab.lp_construction import basis_constant_lower_bound
from seqlab.scalar import DEFAULT_ETA, zero_tol
from test_acceptance import _random_linf_fixture
from seqlab.witnesses import witness_from_parts

LINF = AmbientSpace.linf()
SETTINGS = settings(max_examples=60, deadline=None)

# mixed denominators, and dyadic ones down to 2^-36 as in c0 fixtures
MIXED_DENOMS = (1, 2, 3, 5, 7, 9, 16, 35, 2 ** 20)
DYADIC_DENOMS = tuple(2 ** i for i in range(0, 37, 4)) + (2 ** 36,)


def exact_family(denoms):
    @st.composite
    def build(draw):
        t = draw(st.integers(1, 10))
        d = draw(st.integers(1, 5))
        entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denoms))
        tail = st.builds(Fraction, st.integers(0, 3), st.sampled_from(denoms))
        fam = [Seq(tuple(draw(st.lists(entry, min_size=t, max_size=t))), True,
                   draw(tail)) for _ in range(d)]
        if draw(st.booleans()):  # a geometric generator: nonzero tail bound
            ratio = Fraction(draw(st.integers(1, 7)), 8)
            fam.append(geometric_generator(ratio, t, space=LINF))
        return fam
    return build()


@st.composite
def float_family(draw):
    t = draw(st.integers(1, 10))
    d = draw(st.integers(1, 5))
    entry = st.one_of(st.floats(-1, 1, allow_nan=False),
                      st.sampled_from((0.0, -0.0, 2.0 ** -36, -3.0 ** -20)))
    tail = st.floats(0, 0.5, allow_nan=False)
    return [Seq(tuple(draw(st.lists(entry, min_size=t, max_size=t))), False,
                draw(tail)) for _ in range(d)]


@st.composite
def tied_float_family(draw):
    """Float families over a few values, so maxima tie."""
    t = draw(st.integers(1, 10))
    d = draw(st.integers(1, 5))
    entry = st.sampled_from((0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0))
    return [Seq(tuple(draw(st.lists(entry, min_size=t, max_size=t))), False,
                0.0) for _ in range(d)]


def with_zero_columns(families):
    """The families with no, some or all columns set to zero (+0.0 or -0.0
    in float mode), each vector keeping its tail bound."""
    @st.composite
    def build(draw):
        fam = draw(families)
        t = len(fam[0])
        how = draw(st.sampled_from(("none", "some", "all")))
        zeroed = (set() if how == "none" else set(range(t)) if how == "all"
                  else set(draw(st.lists(st.integers(0, t - 1)))))
        zeros = ((Fraction(0),) if fam[0].exact else (0.0, -0.0))
        return [Seq(tuple(draw(st.sampled_from(zeros)) if j in zeroed else v
                          for j, v in enumerate(f.coords)), f.exact,
                    f.tail_bound) for f in fam]
    return build()


exact_families = st.one_of(exact_family(MIXED_DENOMS),
                           exact_family(DYADIC_DENOMS))
float_families = st.one_of(float_family(), tied_float_family())
any_family = with_zero_columns(st.one_of(exact_families, float_families))


def eps_entry(with_floats):
    """An eps_i in (0, 1): a rational over mixed or dyadic denominators or,
    with_floats, also a float."""
    rational = st.sampled_from(MIXED_DENOMS[1:] + DYADIC_DENOMS[1:]).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d)))
    if with_floats:
        return st.one_of(rational,
                         st.floats(0, 1, exclude_min=True, exclude_max=True))
    return rational


def coefficients(fam, draw_int):
    if fam[0].exact:
        return [Fraction(draw_int(-16, 16), 8) for _ in fam]
    return [draw_int(-16, 16) / 8.0 + draw_int(-9, 9) * 1e-3 for _ in fam]


def same(a, b):
    """Equal values; for floats equal bits."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a.hex() == b.hex()
    return a == b


# -- reference implementations (Fraction / Seq arithmetic) ------------------

def ref_argmax_sign(fam, coeffs):
    y = combine(fam, coeffs)
    sup = norm(y, LINF)
    if sup == 0:
        return None
    j = next(j for j, v in enumerate(y.coords) if abs(v) == sup)
    return j + 1, 1 if y.coords[j] >= 0 else -1


def ref_prefix_sups(fam, coeffs):
    out, acc = [], None
    for f, c in zip(fam, coeffs):
        term = f.scale(c)
        acc = term if acc is None else acc.add(term)
        out.append(norm(acc, LINF))
    return out


def ref_ratio_at(f, s):
    sup = norm(f, LINF)
    if sup == 0:
        return Fraction(0) if f.exact else 0.0
    return abs(f.at(s)) / sup


def ref_ascend_ratio(w_basis, s, exact, passes=2):
    ranked = sorted(range(len(w_basis)),
                    key=lambda i: (-abs(float(w_basis[i].at(s))), i))
    best_vec = w_basis[ranked[0]]
    best = ref_ratio_at(best_vec, s)
    grid = [Fraction(n, 4) if exact else n / 4.0
            for n in (-4, -3, -2, -1, 1, 2, 3, 4)]
    for a_pos in range(min(3, len(ranked))):
        for b_pos in range(a_pos + 1, min(4, len(ranked))):
            va, vb = w_basis[ranked[a_pos]], w_basis[ranked[b_pos]]
            for t in grid:
                cand = va.add(vb.scale(t))
                r = ref_ratio_at(cand, s)
                if r > best:
                    best, best_vec = r, cand
    for _ in range(passes):
        improved = False
        for i in range(len(w_basis)):
            for t in grid:
                cand = best_vec.add(w_basis[i].scale(t))
                r = ref_ratio_at(cand, s)
                if r > best:
                    best, best_vec = r, cand
                    improved = True
        if not improved:
            break
    return best, best_vec


def ref_basis_constant(fam, trials, seed):
    m, exact = len(fam), fam[0].exact
    rng = random.Random(seed)

    def best_ratio(coeffs):
        norms = ref_prefix_sups(fam, coeffs)
        best = Fraction(0) if exact else 0.0
        for hi in range(m):
            if norms[hi] == 0:
                continue
            for lo in range(hi + 1):
                best = max(best, norms[lo] / norms[hi])
        return best

    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    cands = [[one if j == k else zero for j in range(m)] for k in range(m)]
    cands.append([one if k % 2 == 0 else -one for k in range(m)])
    cands.append([one] * m)
    for _ in range(max(0, trials - len(cands))):
        cands.append([Fraction(rng.randint(-16, 16), 16) for _ in range(m)]
                     if exact else [rng.uniform(-1.0, 1.0) for _ in range(m)])
    best, best_c = zero, cands[0]
    for c in cands:
        if any(v != 0 for v in c) and best_ratio(c) > best:
            best, best_c = best_ratio(c), list(c)
    steps = ((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 4))
             if exact else (0.5, -0.5, 0.25, -0.25))
    for _ in range(2):
        improved = False
        for k in range(m):
            for st_ in steps:
                cand = list(best_c)
                cand[k] = cand[k] + st_
                if all(v == 0 for v in cand):
                    continue
                r = best_ratio(cand)
                if r > best:
                    best, best_c, improved = r, cand, True
        if not improved:
            break
    return best


def ref_dense_rows(fam):
    """scan_rows over every coordinate, as it was before it kept only the
    family's nonzero columns."""
    if not all(f.exact for f in fam):
        return [list(f.coords) for f in fam]
    denom = math.lcm(*(v.denominator for f in fam for v in f.coords))
    return [[v.numerator * (denom // v.denominator) for v in f.coords]
            for f in fam]


def ref_net_points(f_list, exact, rng):
    """The Mazur net as dense coefficient vectors, as it was built before
    it was evaluated from its point structure."""
    d = len(f_list)
    one = Fraction(1) if exact else 1.0
    pts = []
    for i in range(d):
        for sgn in (one, -one):
            a = [one * 0] * d
            a[i] = sgn
            pts.append(a)
    step = Fraction(1, 4) if exact else 0.25
    ticks = []
    v = -1 * one
    while v <= one:
        if v != 0:
            ticks.append(v)
        v = v + step
    for i in range(d - 1):
        for tval in ticks:
            a = [one * 0] * d
            a[i] = one
            a[d - 1] = tval
            pts.append(a)
    extras = 8 if d > 1 else 0
    for _ in range(extras):
        pts.append([one * (rng.randint(0, 1) * 2 - 1) for _ in range(d)])
    for _ in range(extras):
        if exact:
            a = [Fraction(rng.randint(-8, 8), 8) for _ in range(d)]
        else:
            a = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        if any(c != 0 for c in a):
            pts.append(a)
    return pts


def ref_net_functionals(fam, exact, rng):
    """(coordinate, sign) of each dense net point's first maximum over all
    T coordinates, or None for a zero point."""
    rows = ref_dense_rows(fam)
    out = []
    for a in ref_net_points(fam, exact, rng):
        y = scan_combine(rows, a)
        mags = [abs(v) for v in y]
        sup_y = max(mags)
        if sup_y == 0:
            out.append(None)
            continue
        best_j = mags.index(sup_y) + 1
        out.append((best_j, 1 if y[best_j - 1] >= 0 else -1))
    return out


# -- the helper --------------------------------------------------------------

class TestScanHelper:
    @SETTINGS
    @given(any_family, st.data())
    def test_argmax_and_sign_match_combine(self, fam, data):
        coeffs = coefficients(fam, lambda a, b: data.draw(st.integers(a, b)))
        rows, _, cols = scan_rows(fam)
        y = scan_combine(rows, coeffs)
        full = combine(fam, coeffs).coords
        mags = [abs(v) for v in y]
        got = None
        if max(mags) != 0:
            p = mags.index(max(mags))
            got = cols[p] + 1, 1 if y[p] >= 0 else -1
        assert got == ref_argmax_sign(fam, coeffs)
        kept = set(cols)
        assert all(not v for j, v in enumerate(full) if j not in kept)
        if not fam[0].exact:  # float rows give combine's bits
            assert all(same(a, full[j]) for a, j in zip(y, cols))

    @SETTINGS
    @given(any_family, st.data())
    def test_prefix_sups_match_seq_ops(self, fam, data):
        ks = [data.draw(st.integers(-16, 16)) for _ in fam]
        rows, denom, _ = scan_rows(fam)
        sups = scan_prefix_sups(rows, ks if fam[0].exact
                                else [float(k) for k in ks])
        if fam[0].exact:
            sups = [Fraction(v, denom) for v in sups]
            ref = ref_prefix_sups(fam, [Fraction(k) for k in ks])
        else:
            ref = ref_prefix_sups(fam, [float(k) for k in ks])
        assert all(same(a, b) for a, b in zip(sups, ref))

    @SETTINGS
    @given(any_family)
    def test_rows_over_common_denominator(self, fam):
        rows, denom, cols = scan_rows(fam)
        t = len(fam[0])
        assert cols == sorted(set(cols)) and all(0 <= j < t for j in cols)
        nonzero = [j for j in range(t) if any(f.coords[j] for f in fam)]
        assert cols == (nonzero or [0])  # an all-zero family keeps column 0
        for f, row in zip(fam, rows):
            assert len(row) == len(cols)
            assert all(not f.coords[j] for j in range(t) if j not in cols)
            if f.exact:
                assert all(isinstance(v, int) for v in row)
                assert [Fraction(v, denom) for v in row] == \
                    [f.at(j + 1) for j in cols]
                # dropped zeros have denominator 1: D is that of all columns
                assert denom == math.lcm(*(v.denominator for g in fam
                                           for v in g.coords))
            else:
                assert denom == 1
                assert all(same(v, f.at(j + 1)) for v, j in zip(row, cols))


# -- the call sites ----------------------------------------------------------

class TestScanCallSites:
    @SETTINGS
    @given(any_family, st.integers(0, 10 ** 6), st.data())
    def test_sample_basis_inequality(self, fam, seed, data):
        exact = fam[0].exact
        one = Fraction(1) if exact else 1.0
        with_floats = not exact or data.draw(st.booleans())
        eps = [one] + data.draw(st.lists(eps_entry(with_floats),
                                         min_size=len(fam), max_size=len(fam)))
        got = sample_basis_inequality(fam, eps, len(fam), exact, seed, 12)
        # reference: the same rng stream through Seq ops
        rng = random.Random(seed ^ 0x5EED)
        cumprod = [one]
        for i in range(1, len(fam)):
            cumprod.append(cumprod[-1] * (1 + eps[i - 1]))
        worst = {}
        for _ in range(12):
            if exact:
                cs = [Fraction(rng.randint(-16, 16), 16) for _ in fam]
            else:
                cs = [rng.uniform(-1.0, 1.0) for _ in fam]
            if all(c == 0 for c in cs):
                continue
            norms = ref_prefix_sups(fam, cs)
            for hi in range(2, len(fam) + 1):
                for lo in range(1, hi):
                    m = (norms[hi - 1] * (cumprod[hi - 1] / cumprod[lo - 1])
                         - norms[lo - 1])
                    if (lo, hi) not in worst or m < worst[(lo, hi)]:
                        worst[(lo, hi)] = m
        assert got.keys() == worst.keys()
        # a float eps makes the later margins floats, in exact mode too
        assert all(type(got[k]) is type(worst[k]) and same(got[k], worst[k])
                   for k in got)

    @SETTINGS
    @given(any_family, st.integers(0, 1000))
    def test_basis_constant_lower_bound(self, fam, seed):
        got = basis_constant_lower_bound(fam, LINF, trials=12, seed=seed)
        assert same(got, ref_basis_constant(fam, 12, seed))

    @SETTINGS
    @given(any_family, st.data())
    def test_ascend_ratio_returns_the_seq_ops_vector(self, fam, data):
        s = data.draw(st.integers(1, len(fam[0])))
        exact = fam[0].exact
        ratio, vec = _ascend_ratio(fam, s, exact)
        ref_ratio, ref_vec = ref_ascend_ratio(fam, s, exact)
        assert same(ratio, ref_ratio)
        assert vec.exact == ref_vec.exact
        assert all(same(a, b) for a, b in zip(vec.coords, ref_vec.coords))
        assert same(vec.tail_bound, ref_vec.tail_bound)

    @settings(max_examples=150, deadline=None)
    @given(any_family, st.integers(0, 10 ** 6))
    def test_net_matches_the_dense_reference(self, fam, seed):
        exact = fam[0].exact
        rng, ref_rng = random.Random(seed), random.Random(seed)
        rows, _, cols = scan_rows(fam)
        got = list(_net_functionals(rows, cols, exact, rng))
        assert got == ref_net_functionals(fam, exact, ref_rng)
        assert rng.getstate() == ref_rng.getstate()  # the same draws

    @SETTINGS
    @given(st.one_of(exact_family(MIXED_DENOMS), float_family()),
           st.integers(0, 1000))
    def test_witness_exact_max_matches_reference(self, fam, seed):
        t = len(fam[0])
        family = (fam * 4)[:max(4, len(fam))]
        markers = [1 + (k % t) for k in range(len(family))]
        exact = family[0].exact
        tol = 0 if exact else DEFAULT_ETA
        even = [family[k] for k in range(1, len(family), 2)]
        forbidden = [markers[k] for k in range(0, len(markers), 2)]
        # reference: every entry l_2i(s_2j-1), the first largest wins
        worst, where = None, None
        for i, v in enumerate(even, start=1):
            for j in forbidden:
                if worst is None or abs(v.at(j)) > worst:
                    worst, where = abs(v.at(j)), [i, j]
        # the max bounds every combination at every forbidden marker (in
        # rationals, which the stored doubles are)
        rng = random.Random(seed)
        cs = [Fraction(rng.uniform(-4.0, 4.0)) for _ in even]
        bound = sum(abs(c) for c in cs) * Fraction(worst)
        for j in forbidden:
            assert abs(sum(c * Fraction(v.at(j)) for c, v in zip(cs, even))) \
                <= bound
        if worst > tol:
            with pytest.raises(WitnessViolation) as info:
                witness_from_parts(family, markers, "sup_zeroing", LINF)
            assert str(info.value).startswith(
                f"even vector {where[0]} of the family (l_{2 * where[0]}) "
                f"has |l({where[1]})| = {float(worst):.3g} > eta")
            return
        cert = witness_from_parts(family, markers, "sup_zeroing", LINF)
        check = next(c for c in cert.checks
                     if c.key == "forbidden_coordinate_max")
        assert same(check.lhs, worst) and list(check.where) == where
        assert cert.samples_checked == len(even) * len(forbidden)


def test_witness_rejects_mixed_modes():
    exact = [Seq.unit(j, 6, True) for j in range(1, 4)]
    floats = [Seq.unit(j, 6, False) for j in range(4, 6)]
    with pytest.raises(ConfigError):
        witness_from_parts(exact + floats, [1, 2, 3, 4, 5], "sup_zeroing",
                           LINF)


# -- the precomputed net pairs and the O(m) best_ratio -----------------------
#
# Verbatim copies of the Mazur net's scan_combine pair loop and of the
# O(m^2) best_ratio, as they were before the pair rows were precomputed and
# the ratio became a running max.  The new code must give the same points
# (the same rows, to the bit) and the same value.

def old_net_functionals(rows, cols, exact, rng):
    d = len(rows)
    one = 1 if exact else 1.0
    for row in rows:  # -e_i has e_i's first maximum, with the sign flipped
        point = linf_construction._first_max(row, cols)
        yield point
        yield None if point is None else (point[0], -point[1])
    q = NET_RESOLUTION.denominator
    ticks = [m for m in range(-q, q + 1) if m]
    for row in rows[:-1]:
        for m in ticks:
            coeffs = [q, m] if exact else [1.0, m * float(NET_RESOLUTION)]
            yield linf_construction._first_max(
                scan_combine([row, rows[-1]], coeffs), cols)
    extras = 8 if d > 1 else 0
    for _ in range(extras):
        coeffs = [one * (rng.randint(0, 1) * 2 - 1) for _ in range(d)]
        yield linf_construction._first_max(scan_combine(rows, coeffs), cols)
    for _ in range(extras):
        coeffs = [rng.randint(-8, 8) if exact else rng.uniform(-1.0, 1.0)
                  for _ in range(d)]
        if any(coeffs):
            yield linf_construction._first_max(scan_combine(rows, coeffs),
                                               cols)


def old_basis_constant_lower_bound(family, space, trials=200, seed=0):
    if not family:
        raise ConfigError("basis_constant_lower_bound needs a nonempty family")
    m = len(family)
    exact = all(f.exact for f in family)
    rng = random.Random(seed)
    rows = scan_rows(family)[0] if space.is_sup else None

    def prefix_norms(coeffs) -> list:
        if space.is_sup:
            return scan_prefix_sups(rows, coeffs)
        prefixes = []
        acc = None
        for k in range(m):
            term = family[k].scale(coeffs[k])
            acc = term if acc is None else acc.add(term)
            prefixes.append(acc)
        return [norm(v, space) for v in prefixes]

    def best_ratio(coeffs):
        norms = prefix_norms(coeffs)
        best = Fraction(0) if exact else 0.0
        for hi in range(m):
            if norms[hi] == 0:
                continue
            for lo in range(hi + 1):
                r = (Fraction(norms[lo], norms[hi]) if exact
                     else norms[lo] / norms[hi])
                if r > best:
                    best = r
        return best

    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    candidates = []
    for k in range(m):
        pattern = [zero] * m
        pattern[k] = one
        candidates.append(pattern)
    candidates.append([one if k % 2 == 0 else -one for k in range(m)])
    candidates.append([one] * m)
    for _ in range(max(0, trials - len(candidates))):
        if exact:
            candidates.append([Fraction(rng.randint(-16, 16), 16) for _ in range(m)])
        else:
            candidates.append([rng.uniform(-1.0, 1.0) for _ in range(m)])

    best = zero
    best_c = candidates[0]
    for c in candidates:
        if all(v == 0 for v in c):
            continue
        r = best_ratio(c)
        if r > best:
            best, best_c = r, list(c)
    steps = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 4)) \
        if exact else (0.5, -0.5, 0.25, -0.25)
    for _ in range(2):
        improved = False
        for k in range(m):
            for st in steps:
                cand = list(best_c)
                cand[k] = cand[k] + st
                if all(v == 0 for v in cand):
                    continue
                r = best_ratio(cand)
                if r > best:
                    best, best_c = r, cand
                    improved = True
        if not improved:
            break
    return best


def recorded_net(net, rows, cols, exact, seed):
    """(functionals, rows as bits, rng state after) of one net: every row
    handed to _first_max is recorded."""
    seen = []
    first_max = linf_construction._first_max

    def record(y, cols):
        seen.append([v.hex() if isinstance(v, float) else v for v in y])
        return first_max(y, cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linf_construction, "_first_max", record)
        rng = random.Random(seed)
        points = list(net(rows, cols, exact, rng))
    return points, seen, rng.getstate()


ZERO_ROWS = [
    [Seq((0.0, -0.0, 0.0), False, 0.0), Seq((-0.0, -0.0, -0.0), False, 0.0)],
    [Seq((Fraction(0),) * 4, True, Fraction(0))] * 2,
    [Seq((0.5, -0.0, 0.25), False, 0.0), Seq((-0.0, 0.0, -0.0), False, 0.0)],
]
ONE_VECTOR = [[Seq((0.0, -0.5, 0.25), False, 0.0)],
              [Seq((Fraction(0), Fraction(3, 7)), True, Fraction(0))],
              [Seq((0.0, -0.0), False, 0.0)]]


class TestPrecomputedNetAndRatio:
    @settings(max_examples=150, deadline=None)
    @given(any_family, st.integers(0, 10 ** 6))
    def test_net_yields_the_scan_combine_points(self, fam, seed):
        self.check_net(fam, seed)

    @pytest.mark.parametrize("fam", ZERO_ROWS + ONE_VECTOR)
    def test_net_on_zero_rows_and_one_vector(self, fam):
        for seed in range(3):
            self.check_net(fam, seed)

    def check_net(self, fam, seed):
        rows, _, cols = scan_rows(fam)
        exact = fam[0].exact
        assert recorded_net(_net_functionals, rows, cols, exact, seed) == \
            recorded_net(old_net_functionals, rows, cols, exact, seed)

    @settings(max_examples=100, deadline=None)
    @given(any_family, st.integers(0, 1000))
    def test_ratio_under_the_sup_norm(self, fam, seed):
        got = basis_constant_lower_bound(fam, LINF, trials=12, seed=seed)
        want = old_basis_constant_lower_bound(fam, LINF, trials=12, seed=seed)
        assert same(got, want) and type(got) is type(want)

    @settings(max_examples=60, deadline=None)
    @given(with_zero_columns(st.one_of(exact_families, float_families)),
           st.integers(0, 1000))
    def test_ratio_under_l1(self, fam, seed):
        l1 = AmbientSpace.lp(1)
        got = basis_constant_lower_bound(fam, l1, trials=12, seed=seed)
        want = old_basis_constant_lower_bound(fam, l1, trials=12, seed=seed)
        assert same(got, want) and type(got) is type(want)

    @settings(max_examples=60, deadline=None)
    @given(with_zero_columns(float_families), st.integers(0, 1000),
           st.sampled_from([Fraction(3, 2), 2, 3]))
    def test_ratio_under_lp_floats(self, fam, seed, p):
        space = AmbientSpace.lp(p)
        got = basis_constant_lower_bound(fam, space, trials=12, seed=seed)
        want = old_basis_constant_lower_bound(fam, space, trials=12,
                                              seed=seed)
        assert same(got, want)

    @pytest.mark.parametrize("fam", ZERO_ROWS + ONE_VECTOR)
    @pytest.mark.parametrize("space", [LINF, AmbientSpace.lp(1)])
    def test_ratio_on_zero_rows_and_one_vector(self, fam, space):
        got = basis_constant_lower_bound(fam, space, trials=12, seed=5)
        want = old_basis_constant_lower_bound(fam, space, trials=12, seed=5)
        assert same(got, want) and type(got) is type(want)


# -- the Mazur step search before it read one scan frame per step ----------

def old_scan_ratio(y, p, exact):
    """Verbatim copy of _scan_ratio, which the scan_combine ascent used."""
    sup = max(map(abs, y))
    if sup == 0 or p is None:
        return Fraction(0) if exact else 0.0
    return Fraction(abs(y[p]), sup) if exact else abs(y[p]) / sup


def old_ascend_ratio(w_basis, s, exact, passes=2):
    """Verbatim copy of the scan_combine-based _ascend_ratio that the
    one-frame ascent replaced."""
    rows, _, cols = scan_rows(w_basis)
    p = cols.index(s - 1) if s - 1 in cols else None

    def step(y, q, i, n):
        if exact:
            return scan_combine([y, rows[i]], [4, n * q]), 4 * q
        return scan_combine([y, rows[i]], [1, n / 4.0]), 1

    ranked = sorted(range(len(w_basis)),
                    key=lambda i: (-abs(float(w_basis[i].at(s))), i))
    ticks = (-4, -3, -2, -1, 1, 2, 3, 4)
    base, path = ranked[0], ()
    best_y, best_q = rows[base], 1
    best = old_scan_ratio(best_y, p, exact)
    # pairwise combinations among the most s-active directions
    for a_pos in range(min(3, len(ranked))):
        for b_pos in range(a_pos + 1, min(4, len(ranked))):
            ia, ib = ranked[a_pos], ranked[b_pos]
            for n in ticks:
                y, q = step(rows[ia], 1, ib, n)
                r = old_scan_ratio(y, p, exact)
                if r > best:
                    best, best_y, best_q = r, y, q
                    base, path = ia, ((ib, n),)
    for _ in range(passes):
        improved = False
        for i in range(len(w_basis)):
            for n in ticks:
                y, q = step(best_y, best_q, i, n)
                r = old_scan_ratio(y, p, exact)
                if r > best:
                    best, best_y, best_q = r, y, q
                    path += ((i, n),)
                    improved = True
        if not improved:
            break
    best_vec = w_basis[base]
    for i, n in path:
        best_vec = best_vec.add(
            w_basis[i].scale(Fraction(n, 4) if exact else n / 4.0))
    return best, best_vec


def old_search(w_basis, start, t_len, constraint_set, exact):
    """The coordinate-search loop mazur_basic_sequence ran before
    _halving_step, verbatim between its setup and its result; the ascent
    is the verbatim copy above."""
    tol = zero_tol(exact)
    half = Fraction(1, 2) if exact else 0.5
    accept_slack = tol if not exact else Fraction(0)
    sups = [norm(b, LINF) for b in w_basis]
    found = None
    for s in range(start, t_len + 1):
        if s in constraint_set:
            continue
        col = [b.at(s) for b in w_basis]
        upper = sum(abs(v) for v in col)  # |c_i| <= |f|_inf at RREF pivots
        if upper < half:
            continue
        best_i, best_r = None, -1
        for i, v in enumerate(col):
            if sups[i] == 0:
                continue
            r = abs(v) / sups[i]
            if r > best_r:
                best_r, best_i = r, i
        if best_r >= half - accept_slack:
            found = (s, w_basis[best_i])
            break
        r, vec = old_ascend_ratio(w_basis, s, exact)
        if r >= half - accept_slack:
            found = (s, vec)
            break
    return found


@st.composite
def tied_exact_family(draw):
    """Exact families over a few values, so magnitudes and ratios tie."""
    t = draw(st.integers(1, 10))
    d = draw(st.integers(1, 6))
    entry = st.sampled_from([Fraction(k, 4) for k in (0, 1, -1, 2, -2, 4, -4)])
    return [Seq(tuple(draw(st.lists(entry, min_size=t, max_size=t))), True,
                Fraction(0)) for _ in range(d)]


@st.composite
def search_family(draw):
    """A family with zero columns, ties and, sometimes, zero-sup rows; in
    exact mode sometimes its RREF basis, the Mazur working subspace."""
    fam = draw(with_zero_columns(st.one_of(
        exact_families, tied_exact_family(), float_families)))
    zero = (Fraction(0),) if fam[0].exact else (0.0, -0.0)
    for i in draw(st.lists(st.integers(0, len(fam) - 1), max_size=2)):
        fam[i] = Seq(tuple(draw(st.sampled_from(zero)) for _ in fam[i].coords),
                     fam[i].exact, fam[i].tail_bound)
    if fam[0].exact and draw(st.booleans()):
        fam = list(Subspace.build(LINF, fam).reduced_basis) or fam
    return fam


def same_vector(a, b):
    return (a.exact == b.exact and same(a.tail_bound, b.tail_bound)
            and all(same(u, v)
                    for u, v in zip(a.coords, b.coords, strict=True)))


def fleet_basis(tmp_path, idx):
    """The reduced basis of one fixture of the acceptance fleet's layout."""
    rng = random.Random(808)
    for i in range(idx + 1):
        path = _random_linf_fixture(rng, tmp_path, i)
    return load_fixture(path)


#: w_1(1) and w_2(1) differ by 2^-60 but round to one float, so the ascent
#: ranks them by index, as float(w_i(s)) always did
ROUNDED_TIE = [Seq((Fraction(1), Fraction(1), Fraction(0)), True, Fraction(0)),
               Seq((1 + Fraction(1, 2 ** 60), Fraction(0), Fraction(5)), True,
                   Fraction(0))]


class TestOneFrameSearch:
    @settings(max_examples=150, deadline=None)
    @given(search_family())
    def test_ascent_matches_the_scan_combine_copy(self, fam):
        exact, frame = fam[0].exact, _scan_frame(fam)
        for s in range(1, len(fam[0]) + 1):  # dropped columns included
            want_r, want_vec = old_ascend_ratio(fam, s, exact)
            for got_r, got_vec in (_ascend_ratio(fam, s, exact),
                                   _ascend_ratio(fam, s, exact, frame)):
                assert same(got_r, want_r) and type(got_r) is type(want_r)
                assert same_vector(got_vec, want_vec)

    @pytest.mark.parametrize("fam", ZERO_ROWS + ONE_VECTOR + [ROUNDED_TIE])
    def test_ascent_on_edge_families(self, fam):
        for s in range(1, len(fam[0]) + 1):
            got_r, got_vec = _ascend_ratio(fam, s, fam[0].exact)
            want_r, want_vec = old_ascend_ratio(fam, s, fam[0].exact)
            assert same(got_r, want_r) and type(got_r) is type(want_r)
            assert same_vector(got_vec, want_vec)

    @settings(max_examples=150, deadline=None)
    @given(search_family(), st.data())
    def test_search_matches_the_coordinate_loop(self, fam, data):
        exact, t_len = fam[0].exact, len(fam[0])
        start = data.draw(st.integers(1, t_len))
        skip = set(data.draw(st.lists(st.integers(1, t_len), max_size=3)))
        got = _halving_step(fam, start, skip, exact)
        want = old_search(fam, start, t_len, skip, exact)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0] and same_vector(got[1], want[1])

    def test_search_accepts_a_float_ratio_within_eta_of_half(self):
        """A basis vector whose ratio is within eta below 1/2 is the
        float witness itself, not an ascent's combination."""
        fam = [Seq((0.5 - DEFAULT_ETA / 10, 1.0, 0.0), False, 0.0),
               Seq((0.25, 0.0, 1.0), False, 0.0)]
        got = _halving_step(fam, 1, set(), False)
        assert got == old_search(fam, 1, 3, set(), False) == (1, fam[0])

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_search_on_fleet_working_subspaces(self, tmp_path, mode):
        """Every step of a fleet fixture's Mazur run, the net's
        constraints included, against the replaced loop."""
        sub = fleet_basis(tmp_path, 0)
        if mode == "float":
            sub = Subspace.build(LINF, [Seq(tuple(map(float, g.coords)),
                                            False, 0.0)
                                        for g in sub.generators])
        cert = mazur_basic_sequence(sub, default_eps_seq(16, sub.exact), 16,
                                    samples=60)
        zeroed, start = list(cert.zeroed_coords), 1
        for n_k in cert.n:
            before = zeroed[:zeroed.index(n_k)]  # the earlier steps' zeros
            w_basis = linf_construction._constrained_basis(
                sub, before, zero_tol(sub.exact)) if before \
                else sub.reduced_basis
            got = _halving_step(w_basis, start, set(before), sub.exact)
            want = old_search(w_basis, start, sub.truncation, set(before),
                              sub.exact)
            assert got[0] == want[0] == n_k
            assert same_vector(got[1], want[1])
            start = n_k + 1


class TestOneFrameCounts:
    def test_one_scan_per_step_and_few_built_rows(self, tmp_path,
                                                  monkeypatch):
        """On a fleet-layout fixture each Mazur step scans its working
        subspace once, the net once more from step 2 and the sampler once
        at the end; every ascent reads its step's frame and builds fewer
        candidate rows than it considers."""
        sub = fleet_basis(tmp_path, 0)
        depth = 16
        calls = {"scan_rows": 0, "built": 0, "considered": 0}
        scan, ascend, build = (linf_construction.scan_rows,
                               linf_construction._ascend_ratio,
                               linf_construction._step_row)

        def counting_scan(family):
            calls["scan_rows"] += 1
            return scan(family)

        def counting_ascend(w_basis, s, exact, frame=None):
            assert frame is not None
            d = len(w_basis)  # the pair phase and at least one pass
            pairs = sum(min(4, d) - a - 1 for a in range(min(3, d)))
            calls["considered"] += 8 * (pairs + d)
            return ascend(w_basis, s, exact, frame)

        def counting_build(*args):
            calls["built"] += 1
            return build(*args)

        monkeypatch.setattr(linf_construction, "scan_rows", counting_scan)
        monkeypatch.setattr(linf_construction, "_ascend_ratio",
                            counting_ascend)
        monkeypatch.setattr(linf_construction, "_step_row", counting_build)
        cert = mazur_basic_sequence(sub, default_eps_seq(depth, True), depth,
                                    samples=60)
        assert len(cert.n) == depth
        assert calls["scan_rows"] == depth + (depth - 1) + 1
        assert calls["considered"] > 0  # the ascent ran
        assert calls["built"] < calls["considered"]
