"""State files: the canonical JSON schema consumed and produced by the CLI.

Layout::

    {"sectors": [{"two_S": int, "weight": float, "form": ..., "data": ...}]}

with one entry per shell and form-specific payloads:

* "matrix"   - row-major (2S+1)^2 entries as [re, im] pairs, m descending
* "diag"     - list of 2S+1 eigenvalues in the |S,m> basis
* "pure"     - list of 2S+1 amplitudes as [re, im] pairs
* "fock"     - {"two_m": int}
* "coherent" - {"theta": float, "phi": float}

Every weight and payload number is a JSON number inside the float range: a
string, bool, null, NaN or Infinity is refused, naming the form and the entry.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from .angmom import MAX_TWO_S, HalfInt, _check_int
from .states import (
    Direction,
    PolarizationState,
    SpinSector,
    assemble,
    diag_sector,
    fock_sector,
    pure_sector,
    su2_coherent,
)

__all__ = ["MAX_TWO_S", "SchemaError", "state_from_dict", "state_to_dict", "load_state", "save_state"]

# the state constructor of each form, called with the spin and the payload read from the file
FORMS = {"matrix": SpinSector, "diag": diag_sector, "pure": pure_sector, "fock": fock_sector, "coherent": su2_coherent}


class SchemaError(ValueError):
    """The file does not follow the state schema."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _numbers(data, name: str, shape: tuple[int, ...] = ()):
    """`data` read entry by entry as nested lists of `shape` (a float when shape is ()), naming the first bad one.

    A number is a JSON number inside the float range: a string, bool, null, list, NaN or Infinity is refused.
    """
    if shape:
        if not (isinstance(data, list) and len(data) == shape[0]):
            raise SchemaError(f"{name} must be a list of {shape[0]} entries, got {data!r}")
        return [_numbers(x, f"{name}[{i}]", shape[1:]) for i, x in enumerate(data)]
    if not (isinstance(data, (int, float)) and not isinstance(data, bool) and abs(data) <= sys.float_info.max):
        raise SchemaError(f"{name} must be a finite number, got {data!r}")
    return float(data)


def _array(data, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """`_numbers(data, name, shape)` as a float array: each level is checked and flattened whole, and only a
    payload that fails is read entry by entry, to name what is wrong."""
    level = data
    if type(data) is list and len(data) == shape[0]:
        for n in shape[1:]:  # each level a list of lists of n entries, flattened into the next
            if not (set(map(type, level)) == {list} and set(map(len, level)) == {n}):
                break
            level = list(itertools.chain.from_iterable(level))
        else:
            try:  # a NaN or an infinity leaves the sum non-finite, and an integer past the float range overflows
                if set(map(type, level)) <= {int, float} and math.isfinite(sum(level)):
                    return np.array(level, dtype=float).reshape(shape)
            except OverflowError:
                pass
    return np.array(_numbers(data, name, shape))


def _sector_from_entry(entry: dict) -> tuple[float, SpinSector]:
    """One shell: a bad field raises a ValueError that starts with its name, and state_from_dict a SchemaError."""
    _require(isinstance(entry, dict), "sector entry must be an object")
    for key in ("two_S", "weight", "form", "data"):
        _require(key in entry, f"sector entry missing {key!r}")
    two_s = _check_int("two_S", entry["two_S"], 0, MAX_TWO_S, span="[0, MAX_TWO_S]")
    weight = _numbers(entry["weight"], "weight")
    form, data, d = entry["form"], entry["data"], two_s + 1
    _require(form in FORMS, f"unknown form {form!r}; expected one of {tuple(FORMS)}")
    if form in ("matrix", "pure"):  # [re, im] pairs, read as complex numbers
        payload = _array(data, f"{form} data", (d, d, 2) if form == "matrix" else (d, 2)).view(complex)[..., 0]
    elif form == "diag":
        payload = _array(data, "diag data", (d,))
    elif form == "fock":
        _require(isinstance(data, dict) and "two_m" in data, "fock data must be {'two_m': int}")
        payload = _check_int("fock two_m", data["two_m"], -two_s, two_s, span="[-2S, 2S]") / 2.0
    else:
        _require(isinstance(data, dict) and "theta" in data and "phi" in data,
                 "coherent data must be {'theta': number, 'phi': number}")
        payload = Direction(_numbers(data["theta"], "coherent theta"), _numbers(data["phi"], "coherent phi"))
    try:
        return weight, FORMS[form](HalfInt(two_s), payload)
    except ValueError as exc:
        raise SchemaError(f"invalid sector payload (two_S={two_s}, form={form}): {exc}") from exc


def state_from_dict(obj: dict) -> PolarizationState:
    _require(isinstance(obj, dict) and "sectors" in obj, "state object needs a 'sectors' list")
    sectors = obj["sectors"]
    _require(isinstance(sectors, list) and sectors, "'sectors' must be a non-empty list")
    try:
        return assemble([_sector_from_entry(e) for e in sectors])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def state_to_dict(obj, *, metadata: dict | None = None) -> dict:
    """Serialize a SpinSector or PolarizationState (diagonal shells stay 'diag')."""
    if isinstance(obj, SpinSector):
        obj = assemble([(1.0, obj)])
    sectors = []
    for w, sec in obj:
        rho = np.asarray(sec.rho)
        off = rho - np.diag(np.diag(rho))
        if np.all(off == 0) and np.all(np.diag(rho).imag == 0):
            payload = {"form": "diag", "data": [float(x) for x in np.diag(rho).real]}
        else:
            payload = {
                "form": "matrix",
                "data": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
            }
        sectors.append({"two_S": sec.spin.twice, "weight": float(w), **payload})
    out = {"sectors": sectors}
    if metadata is not None:
        out["metadata"] = metadata
    return out


def load_state(path) -> PolarizationState:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return state_from_dict(obj)


def save_state(obj, path, *, metadata: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(obj, metadata=metadata), fh, indent=1)
        fh.write("\n")
