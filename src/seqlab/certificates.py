"""Check entries and certificate JSON plumbing.

Every pipeline emits a certificate: raw construction data (indices and
full coordinate vectors) plus a ledger of checks, one per proof
inequality.  A check stores both sides of the inequality as evaluated
at construction time; the verifier recomputes both sides from the raw
coordinates and never trusts the cached values.

Serialization is canonical (sorted keys, tight separators, trailing
newline) so identical runs are byte-identical.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .errors import MalformedCertificate
from .scalar import Scalar, parse_scalar, scalar_to_json

SCHEMA_VERSION = 1


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

    def as_json(self) -> dict:
        return {
            "key": self.key,
            "where": list(self.where),
            "lhs": scalar_to_json(self.lhs),
            "rel": self.rel,
            "rhs": scalar_to_json(self.rhs),
            "tol": scalar_to_json(self.tol),
            "passed": self.passed,
        }

    def label(self) -> str:
        loc = ",".join(str(w) for w in self.where)
        return f"{self.key}[{loc}]" if loc else self.key


def evaluate(lhs: Scalar, rel: str, rhs: Scalar, tol: Scalar) -> bool:
    if rel == "lt":
        return lhs < rhs + tol
    if rel == "le":
        return lhs <= rhs + tol
    if rel == "abs_le":
        return abs(lhs) <= rhs + tol
    if rel == "abs_gt":
        return abs(lhs) > rhs
    if rel == "eq":
        return abs(lhs - rhs) <= tol
    if rel == "ge":
        return lhs >= rhs - tol
    raise MalformedCertificate(f"unknown check relation {rel!r}")


def make_check(key: str, where, lhs: Scalar, rel: str, rhs: Scalar,
               tol: Scalar = 0) -> Check:
    return Check(key, tuple(where), lhs, rel, rhs, tol,
                 evaluate(lhs, rel, rhs, tol))


def check_from_json(obj: dict) -> Check:
    try:
        exact = isinstance(obj["lhs"], str) or isinstance(obj["rhs"], str)
        return Check(
            key=obj["key"],
            where=tuple(obj["where"]),
            lhs=parse_scalar(obj["lhs"], exact),
            rel=obj["rel"],
            rhs=parse_scalar(obj["rhs"], exact),
            tol=parse_scalar(obj["tol"], isinstance(obj["tol"], str)),
            passed=bool(obj["passed"]),
        )
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"bad check entry {obj!r}: {exc}") from exc


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
