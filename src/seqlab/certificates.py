"""Check entries and certificate JSON plumbing.

Every pipeline emits a certificate: raw construction data (indices and
full coordinate vectors) plus, per ledger, a summary of its checks (one
check per proof inequality): the number of checks under each key and
the key and where of each failed check (``ledger_summary``).  No value
of a check is stored; the verifier recomputes every check from the raw
coordinates and compares the summary of what it recomputed with the
stored one.

Serialization is canonical (sorted keys, tight separators, trailing
newline) so identical runs are byte-identical.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .errors import MalformedCertificate
from .scalar import Scalar

#: Version 2: the lp zeroing Q ledger holds certified bounds, not samples.
#: Version 3: a witness holds an exact parity ledger, not samples, and no
#: seed or odd family; lp certificates store each vector once (no f_tilde,
#: g or sigma in dominance, no vectors or norm_upper in q_op).
#: Version 4: every ledger is stored as its summary, not entry by entry;
#: the mazur, cascade and sup_zeroing levels store no eta.
SCHEMA_VERSION = 4


@dataclass(frozen=True)
class Check:
    """One ledger entry: lhs REL rhs, with an explicit tolerance.

    Relations: "lt" (lhs < rhs + tol), "le" (lhs <= rhs + tol),
    "abs_le" (|lhs| <= rhs + tol), "abs_gt" (|lhs| > rhs), "eq"
    (|lhs - rhs| <= tol), "ge" (lhs >= rhs - tol).
    """

    key: str
    where: tuple
    lhs: Scalar
    rel: str
    rhs: Scalar
    tol: Scalar
    passed: bool


def evaluate(lhs: Scalar, rel: str, rhs: Scalar, tol: Scalar) -> bool:
    """The check's relation on these values.

    rhs + tol and rhs - tol compare as rhs when tol is an int or Fraction
    zero, or a float zero beside a float rhs, so those skip the sum; an
    int or Fraction rhs plus 0.0 is rounded to a float, so it keeps it.
    """
    bare = not tol and (not isinstance(tol, float) or isinstance(rhs, float))
    if rel == "lt":
        return lhs < (rhs if bare else rhs + tol)
    if rel == "le":
        return lhs <= (rhs if bare else rhs + tol)
    if rel == "abs_le":
        return abs(lhs) <= (rhs if bare else rhs + tol)
    if rel == "abs_gt":
        return abs(lhs) > rhs
    if rel == "eq":
        return abs(lhs - rhs) <= tol
    if rel == "ge":
        return lhs >= (rhs if bare else rhs - tol)
    raise MalformedCertificate(f"unknown check relation {rel!r}")


def make_check(key: str, where, lhs: Scalar, rel: str, rhs: Scalar,
               tol: Scalar = 0) -> Check:
    return Check(key, tuple(where), lhs, rel, rhs, tol,
                 evaluate(lhs, rel, rhs, tol))


def ledger_summary(checks) -> dict:
    """A ledger as certificates store it: {"counts": the number of checks
    under each key, "failed": [key, where] of each failed check, in
    ledger order}.  A passing ledger has no failed entry."""
    counts: dict = {}
    failed = []
    for c in checks:
        counts[c.key] = counts.get(c.key, 0) + 1
        if not c.passed:
            failed.append([c.key, list(c.where)])
    return {"counts": counts, "failed": failed}


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_atomic(path: str, payload: str) -> None:
    """Write-temp-then-rename so concurrent runs never see partial output.

    The file gets the mode ``open(path, "w")`` would give it, 0o666 less
    the umask, not the 0o600 that mkstemp creates the temporary with.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seqlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _umask() -> int:
    """The process umask.  It can only be read by setting it, so for the
    moment between the two calls it is 0o077: a file another thread
    creates then is private, as mkstemp would make it, never wider."""
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def load_certificate(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedCertificate(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedCertificate(f"{path}: certificate must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise MalformedCertificate(
            f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    if "kind" not in doc:
        raise MalformedCertificate(f"{path}: missing 'kind'")
    return doc


def require(doc: dict, *keys: str) -> None:
    for key in keys:
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise MalformedCertificate(f"certificate missing field {key!r}")
            node = node[part]


def checks_status(checks) -> str:
    return "pass" if all(c.passed for c in checks) else "fail"
