"""Checks of emitted certificates, computed apart from seqlab.

Nothing here imports seqlab: exact arithmetic uses ``fractions.Fraction``
and float norms use ``math.fsum``.  The checks test the properties the
constructions must have, against the generators and coefficients the
benchmark itself wrote, not against a stored copy of earlier output:

* lp zeroing families: unit f_k, the zero pattern of l_k at the markers,
  |l_k - f_k| <= eps/2^k, strictly increasing markers;
* sup-norm families: the Mazur diagonal and norm window, the cascade
  case bounds 6/2/8/8, the final pattern l_k(s_j) = [j == k] with
  |l_k| <= 9;
* every stored f_k, l_k and h_k lies in the span of the generators;
* witnesses: each even vector vanishes at each odd marker, and the even
  family has rank depth/2;
* density repair: the input is the benchmark's own combination, the
  distance bound, zeros at the selected markers, and the c0 series
  budget 9 * sum |f(s)| <= eps.

Each check that does not hold adds one line to ``Report.failures``.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

#: float-mode zero tolerance, the same eta seqlab's certificates carry
ETA = 1e-9
CASE_BOUNDS = {1: 6, 2: 2, 3: 8, 4: 8}


class Report:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _scalar(v):
    """JSON scalar: "num/den" strings are exact, numbers stay floats."""
    return Fraction(v) if isinstance(v, str) else v


def _vec(obj: dict) -> list:
    return [_scalar(v) for v in obj["coords"]]


def _sup(values):
    return max((abs(v) for v in values), default=0)


def _lp_norm(values, p: Fraction) -> float:
    if p == 2:
        return math.sqrt(math.fsum(float(v) * float(v) for v in values))
    return math.fsum(abs(float(v)) ** float(p) for v in values) ** (1 / float(p))


def _increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


class Span:
    """Row-reduced basis of a family of sparse rows ({coordinate: value}).

    Exact rows reduce with Fractions and pivot on any nonzero entry;
    float rows pivot on the largest entry and treat |v| <= ETA as zero.
    """

    def __init__(self, rows, exact: bool):
        self.exact = exact
        self.pivots: list[tuple[int, dict]] = []
        for row in rows:
            self.add(row)

    def _zero(self, v) -> bool:
        return v == 0 if self.exact else abs(v) <= ETA

    def reduce(self, vec: dict) -> dict:
        out = dict(vec)
        for piv, row in self.pivots:
            c = out.get(piv)
            if c is None or c == 0:
                continue
            for j, w in row.items():
                val = out.get(j, 0) - c * w
                if val == 0:
                    out.pop(j, None)
                else:
                    out[j] = val
        return out

    def add(self, vec: dict) -> None:
        """Add a row unless it already lies in the span."""
        if not self.exact:
            vec = {j: float(v) for j, v in vec.items()}
        red = self.reduce(vec)
        live = {j: v for j, v in red.items() if not self._zero(v)}
        if not live:
            return
        if self.exact:
            piv = min(live)
        else:
            piv = max(live, key=lambda j: (abs(live[j]), -j))
        scale = live[piv]
        row = {j: v / scale for j, v in live.items()}
        row[piv] = 1 if self.exact else 1.0
        for _, r_old in self.pivots:
            c = r_old.get(piv)
            if c:
                for j, w in row.items():
                    val = r_old.get(j, 0) - c * w
                    if val == 0:
                        r_old.pop(j, None)
                    else:
                        r_old[j] = val
                r_old.pop(piv, None)
        self.pivots.append((piv, row))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residual(self, values) -> object:
        """Largest |coordinate| of values minus its projection onto the span."""
        vec = {j: v for j, v in enumerate(values) if v != 0}
        if not self.exact:
            vec = {j: float(v) for j, v in vec.items()}
        return _sup(self.reduce(vec).values())

    def contains(self, values) -> bool:
        res = self.residual(values)
        return res == 0 if self.exact else res <= ETA


def _check_span(span: Span, vectors, label: str, report: Report) -> None:
    for k, values in enumerate(vectors, start=1):
        report.expect(span.contains(values),
                      f"{label}[{k}] is not in the span of the generators")


def check_lp_zeroing(doc: dict, span: Span, report: Report, label: str) -> None:
    eps = Fraction(doc["eps"])
    p = Fraction(doc["space"]["p"])
    depth = int(doc["depth"])
    s = list(doc["s"])
    fs = [_vec(o) for o in doc["dominance"]["f"]]
    ls = [_vec(o) for o in doc["l"]]
    report.expect(len(s) == len(fs) == len(ls) == depth,
                  f"{label}: {len(fs)} f, {len(ls)} l, {len(s)} markers for "
                  f"depth {depth}")
    report.expect(_increasing(s), f"{label}: markers {s} not increasing")
    for k, (f, l) in enumerate(zip(fs, ls), start=1):
        report.expect(abs(_lp_norm(f, p) - 1) <= ETA,
                      f"{label}: |f_{k}| = {_lp_norm(f, p)!r} is not 1")
        for j, s_j in enumerate(s, start=1):
            v = abs(float(l[s_j - 1]))
            if j == k:
                report.expect(v > ETA, f"{label}: l_{k}(s_{k}) = 0")
            else:
                report.expect(v <= ETA, f"{label}: l_{k}(s_{j}) = {v!r}")
        dist = _lp_norm([a - b for a, b in zip(l, f)], p)
        report.expect(dist <= float(eps) / 2 ** k + ETA,
                      f"{label}: |l_{k} - f_{k}| = {dist!r} > eps/2^{k}")
    _check_span(span, fs, f"{label}.f", report)
    _check_span(span, ls, f"{label}.l", report)


def check_sup_zeroing(doc: dict, span: Span, report: Report, label: str) -> None:
    cascade = doc["cascade"]
    mazur = cascade["source"]
    n = list(mazur["n"])
    fs = [_vec(o) for o in mazur["f"]]
    report.expect(len(n) == len(fs), f"{label}: {len(fs)} Mazur vectors, "
                  f"{len(n)} indices")
    report.expect(_increasing(n), f"{label}: Mazur indices not increasing")
    for k, f in enumerate(fs, start=1):
        report.expect(f[n[k - 1] - 1] == 1, f"{label}: f_{k}(n_{k}) != 1")
        sup = _sup(f)
        report.expect(1 <= sup <= 2, f"{label}: |f_{k}| = {sup} outside [1, 2]")
        for i in range(1, k):
            report.expect(f[n[i - 1] - 1] == 0, f"{label}: f_{k}(n_{i}) != 0")

    hs = [_vec(o) for o in cascade["h"]]
    cases = [entry["case"] for entry in cascade["case_trace"]]
    report.expect(len(hs) == len(cases),
                  f"{label}: {len(hs)} cascade vectors, {len(cases)} cases")
    for level, (h, case) in enumerate(zip(hs, cases), start=1):
        sup = _sup(h)
        report.expect(sup <= CASE_BOUNDS[case],
                      f"{label}: |h_{level}| = {sup} over case {case} bound")

    depth = int(doc["depth"])
    s = list(doc["s"])
    ls = [_vec(o) for o in doc["l"]]
    report.expect(len(s) == len(ls) == depth,
                  f"{label}: {len(ls)} l, {len(s)} markers for depth {depth}")
    report.expect(_increasing(s), f"{label}: markers {s} not increasing")
    for k, l in enumerate(ls, start=1):
        for j, s_j in enumerate(s, start=1):
            want = 1 if j == k else 0
            report.expect(l[s_j - 1] == want,
                          f"{label}: l_{k}(s_{j}) = {l[s_j - 1]}, want {want}")
        sup = _sup(l)
        report.expect(sup <= 9, f"{label}: |l_{k}| = {sup} > 9")
    _check_span(span, fs, f"{label}.f", report)
    _check_span(span, hs, f"{label}.h", report)
    _check_span(span, ls, f"{label}.l", report)


def check_witness(doc: dict, source: dict, report: Report, label: str) -> None:
    exact = source["kind"] == "sup_zeroing" or source.get("mode") == "exact"
    report.expect(doc["even_family"] == source["l"][1::2],
                  f"{label}: even family is not l_2, l_4, ... of the source")
    report.expect(doc["forbidden"] == source["s"][0::2],
                  f"{label}: forbidden markers are not s_1, s_3, ...")
    even = [_vec(o) for o in doc["even_family"]]
    for k, v in enumerate(even, start=1):
        for s_j in doc["forbidden"]:
            val = v[s_j - 1]
            report.expect(val == 0 if exact else abs(val) <= ETA,
                          f"{label}: even vector {k} is {val} at odd marker {s_j}")
    rank = Span(({j: x for j, x in enumerate(v) if x != 0} for v in even),
                exact).rank
    report.expect(rank == int(source["depth"]) // 2,
                  f"{label}: even rank {rank} != depth/2")


def combination(fixture, coeffs) -> list:
    """sum c_i v_i over the fixture's generators, exactly."""
    out = [Fraction(0)] * fixture.truncation
    for c, row in zip(coeffs, fixture.generators):
        for j, v in row.items():
            out[j] += c * v
    return out


def check_density(doc: dict, fixture, coeffs, span: Span, report: Report,
                  label: str) -> None:
    eps = Fraction(doc["eps"])
    f_doc = _vec(doc["input"])
    g = _vec(doc["result"])
    f_own = combination(fixture, coeffs)
    if doc["path"] == "c0":
        report.expect(f_doc == f_own,
                      f"{label}: input is not the benchmark's combination")
        dist = _sup([a - b for a, b in zip(g, f_own)])
        report.expect(dist <= eps, f"{label}: |g - f| = {dist} > eps")
        selected = list(doc["selected"])
        for s_j in selected:
            report.expect(g[s_j - 1] == 0, f"{label}: g({s_j}) != 0")
        series = 9 * sum(abs(f_own[s_j - 1]) for s_j in selected)
        report.expect(series <= eps, f"{label}: 9 sum |f(s)| = {series} > eps")
        report.expect(selected == doc["sup_zeroing"]["s"],
                      f"{label}: selected markers differ from the family's")
        check_sup_zeroing(doc["sup_zeroing"], span, report, f"{label}.sup_zeroing")
        return
    p = Fraction(doc["zeroing"]["space"]["p"])
    f_float = [float(v) for v in f_own]
    worst = _sup([a - b for a, b in zip(f_doc, f_float)])
    report.expect(worst <= ETA,
                  f"{label}: input is {worst!r} away from the benchmark's combination")
    scale = _lp_norm(f_float, p)
    dist = _lp_norm([a - b for a, b in zip(g, f_float)], p)
    report.expect(dist <= scale * float(eps) / 2 + ETA,
                  f"{label}: |g - f| = {dist!r} > |f| eps/2")
    forbidden = list(doc["forbidden"])
    for s_j in forbidden:
        report.expect(abs(g[s_j - 1]) <= ETA * max(1.0, scale),
                      f"{label}: g({s_j}) = {g[s_j - 1]!r}")
    report.expect(forbidden == doc["zeroing"]["s"][1:],
                  f"{label}: forbidden markers are not s_2, s_3, ...")
    check_lp_zeroing(doc["zeroing"], span, report, f"{label}.zeroing")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_workload(wl) -> Report:
    """Run every check on the certificates of one round of ``wl``."""
    report = Report()
    spans = {stem: Span(fix.generators, fix.exact)
             for stem, fix in wl.fixtures.items()}
    for path, (kind, stem, source) in wl.certs.items():
        label = path[len(wl.workdir) + 1:]
        try:
            doc = _load(path)
            report.expect(doc.get("status") == "pass",
                          f"{label}: status {doc.get('status')!r}")
            if kind == "zeroing":
                check_lp_zeroing(doc, spans[stem], report, label)
            elif kind == "sup_zeroing":
                check_sup_zeroing(doc, spans[stem], report, label)
            elif kind == "witness":
                check_witness(doc, _load(source), report, label)
            elif kind == "density":
                check_density(doc, wl.fixtures[stem], wl.coeffs[stem],
                              spans[stem], report, label)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            report.expect(False, f"{label}: unreadable ({type(exc).__name__}: {exc})")
    return report
