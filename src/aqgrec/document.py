"""The bundle document: Category Bundle v1 text decoded once, without numpy.

load_document runs json.loads and the header checks of the format (see
bundle.py): version, keys, labels, unit, dims, closed and dual.  The
matrices and vectors stay as the object hook leaves them, each "data" a
stdlib array('d') of interleaved real and imaginary parts and each "at" an
array('q'), and bundle.parse_bundle builds the numpy arrays from them.

Whether dual, group and rmatrix can run at all is fixed by two fields of the
document, closed and braiding, so their refusals (require_tables,
require_group, require_braiding) are decided here, before numpy loads.
"""
from __future__ import annotations

import json
from array import array
from itertools import chain

from .errors import BundleSyntaxError, MissingBraiding, NotFinite, ShapeError


class BundleDocument:
    """A bundle file whose header passed its checks: labels, unit, dims, dual
    and closed as checked, and fusion, conj, braiding and weights as decoded,
    braiding and weights None when absent.  (Not a dataclass: dataclasses
    imports inspect, 5 ms a process, and a refusal needs neither.)"""

    def __init__(self, doc: dict, labels: list[str], unit: str, dims: dict[str, int],
                 dual: dict[str, str]):
        self.labels, self.unit, self.dims, self.dual = labels, unit, dims, dual
        self.closed, self.fusion, self.conj = doc["closed"], doc["fusion"], doc["conj"]
        self.braiding, self.weights = doc.get("braiding"), doc.get("weights")


def _decode_data(obj: dict) -> dict:
    """json.loads object hook: a "data" list of [re, im] pairs becomes an
    array('d') of its parts in order as soon as its object is parsed, and its
    "at" an array('q'), so the entries never stand as a tree of Python lists.
    A list that does not convert is left in place for the array stage to
    report at its location."""
    data = obj.get("data")
    if type(data) is not list:
        return obj
    try:
        # a pair of length 2 that is not two numbers (a string, an object, a
        # list of lists) yields a part that array("d") refuses
        if not set(map(len, data)) <= {2}:
            return obj
        obj["data"] = array("d", chain.from_iterable(data))
    except (TypeError, OverflowError):
        return obj
    at = positions(obj.get("at"))
    if at is not None:
        obj["at"] = at
    return obj


def positions(at) -> array | None:
    """at as an array('q'), if it is one or a list of JSON integers in range."""
    if isinstance(at, array):
        return at
    if type(at) is not list or not set(map(type, at)) <= {int}:
        return None
    try:
        return array("q", at)
    except OverflowError:
        return None


def _is_int(value) -> bool:
    """Whether value is a JSON integer: an int, but not a bool, which Python
    counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def typed(value, kind: type, what: str):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise BundleSyntaxError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def load_document(text: str) -> BundleDocument:
    """Decode Category Bundle v1 text and check its header."""
    try:
        doc = json.loads(text, object_hook=_decode_data)
    except json.JSONDecodeError as exc:
        raise BundleSyntaxError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise BundleSyntaxError("top level must be a JSON object")
    if not _is_int(doc.get("version")) or doc["version"] != 1:
        raise BundleSyntaxError(f"unsupported version {doc.get('version')!r}")
    for key in ("labels", "unit", "dims", "dual", "closed", "fusion", "conj"):
        if key not in doc:
            raise BundleSyntaxError(f"missing key {key!r}")

    labels = [str(x) for x in typed(doc["labels"], list, "labels")]
    if len(set(labels)) != len(labels):
        raise BundleSyntaxError("duplicate labels")
    lset = set(labels)
    unit = str(doc["unit"])
    if unit not in lset:
        raise BundleSyntaxError(f"unit label {unit!r} not in labels")

    dims = {}
    for i, v in typed(doc["dims"], dict, "dims").items():
        if i not in lset:
            raise BundleSyntaxError(f"dims mentions unknown label {i!r}")
        if not _is_int(v) or v < 1:
            raise BundleSyntaxError(f"dim of {i!r} must be a positive integer")
        dims[i] = v
    if set(dims) != lset:
        raise BundleSyntaxError("dims must cover every label")
    if dims[unit] != 1:
        raise ShapeError("unit label must have dimension 1")

    if not isinstance(doc["closed"], bool):
        raise BundleSyntaxError("closed must be true or false")
    dual = {str(i): str(j) for i, j in typed(doc["dual"], dict, "dual").items()}
    if set(dual) != lset or not set(dual.values()) <= lset:
        raise BundleSyntaxError("dual map must be a self-map of the label set")
    return BundleDocument(doc, labels, unit, dims, dual)


def require_tables(closed: bool) -> None:
    """Refuse a window: the Hopf tables need all of A."""
    if not closed:
        raise NotFinite("Hopf tables require a closed bundle")


def require_group(closed: bool) -> None:
    """Refuse a window: the intrinsic group needs all of A."""
    if not closed:
        raise NotFinite("intrinsic group requires a closed bundle")


def require_braiding(braiding) -> None:
    """Refuse a bundle without braiding data."""
    if braiding is None:
        raise MissingBraiding("*", "*", "the bundle has no braiding")
