"""Integer-row scans against reference implementations on combine/Seq ops.

Exact mode must give the same argmax, sign, prefix sups and ratios as
the Fraction arithmetic; float mode must give the same bits.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import (
    AmbientSpace,
    Seq,
    combine,
    norm,
    scan_combine,
    scan_prefix_sups,
    scan_rows,
)
from seqlab.errors import ConfigError, WitnessViolation
from seqlab.lineability import geometric_generator
from seqlab.linf_construction import _ascend_ratio, sample_basis_inequality
from seqlab.lp_construction import basis_constant_lower_bound
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


any_family = st.one_of(exact_family(MIXED_DENOMS), exact_family(DYADIC_DENOMS),
                       float_family())


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


# -- the helper --------------------------------------------------------------

class TestScanHelper:
    @SETTINGS
    @given(any_family, st.data())
    def test_argmax_and_sign_match_combine(self, fam, data):
        coeffs = coefficients(fam, lambda a, b: data.draw(st.integers(a, b)))
        rows, _ = scan_rows(fam)
        y = scan_combine(rows, coeffs)
        mags = [abs(v) for v in y]
        got = None
        if max(mags) != 0:
            j = mags.index(max(mags))
            got = j + 1, 1 if y[j] >= 0 else -1
        assert got == ref_argmax_sign(fam, coeffs)
        if not fam[0].exact:  # float rows give combine's bits
            assert all(same(a, b) for a, b in
                       zip(y, combine(fam, coeffs).coords))

    @SETTINGS
    @given(any_family, st.data())
    def test_prefix_sups_match_seq_ops(self, fam, data):
        ks = [data.draw(st.integers(-16, 16)) for _ in fam]
        rows, denom = scan_rows(fam)
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
        rows, denom = scan_rows(fam)
        for f, row in zip(fam, rows):
            if f.exact:
                assert all(isinstance(v, int) for v in row)
                assert [Fraction(v, denom) for v in row] == list(f.coords)
            else:
                assert denom == 1 and row == list(f.coords)


# -- the call sites ----------------------------------------------------------

class TestScanCallSites:
    @SETTINGS
    @given(any_family, st.integers(0, 10 ** 6))
    def test_sample_basis_inequality(self, fam, seed):
        exact = fam[0].exact
        one = Fraction(1) if exact else 1.0
        eps = [one] + [one / 2 ** i for i in range(2, len(fam) + 1)]
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
        assert all(same(got[k], worst[k]) for k in got)

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

    @SETTINGS
    @given(st.one_of(exact_family(MIXED_DENOMS), float_family()),
           st.floats(1e-3, 2.0), st.integers(0, 1000))
    def test_witness_samples_match_combine(self, fam, eta, seed):
        t = len(fam[0])
        family = (fam * 4)[:max(4, len(fam))]
        markers = [1 + (k % t) for k in range(len(family))]
        exact = family[0].exact
        tol = 0 if exact else eta
        even = [family[k] for k in range(1, len(family), 2)]
        forbidden = [markers[k] for k in range(0, len(markers), 2)]
        rng = random.Random(seed)
        worst, violation = (Fraction(0) if exact else 0.0), None
        for i in range(20):
            cs = ([Fraction(rng.randint(-32, 32), 8) for _ in even] if exact
                  else [rng.uniform(-4.0, 4.0) for _ in even])
            sample = combine(even, cs)
            for j in forbidden:
                worst = max(worst, abs(sample.at(j)))
                if abs(sample.at(j)) > tol and violation is None:
                    violation = (f"sample {i}: combination of the even family "
                                 f"has |f({j})| = {float(abs(sample.at(j))):.3g}")
            if violation:
                break
        if violation:
            with pytest.raises(WitnessViolation) as info:
                witness_from_parts(family, markers, "sup_zeroing", LINF, eta,
                                   samples=20, seed=seed)
            assert str(info.value).startswith(violation)
            return
        cert = witness_from_parts(family, markers, "sup_zeroing", LINF, eta,
                                  samples=20, seed=seed)
        check = next(c for c in cert.checks
                     if c.key == "forbidden_coordinate_max")
        assert same(check.lhs, worst)


def test_witness_rejects_mixed_modes():
    exact = [Seq.unit(j, 6, True) for j in range(1, 4)]
    floats = [Seq.unit(j, 6, False) for j in range(4, 6)]
    with pytest.raises(ConfigError):
        witness_from_parts(exact + floats, [1, 2, 3, 4, 5], "sup_zeroing",
                           LINF, 1e-9, samples=2)
