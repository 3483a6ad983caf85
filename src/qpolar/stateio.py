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

import json

import numpy as np

from .angmom import MAX_TWO_S, HalfInt, SchemaError, _check_int, _check_reals, _check_two_s
from .states import (
    Direction,
    PolarizationState,
    SpinSector,
    as_shells,
    assemble,
    diag_sector,
    fock_sector,
    pure_sector,
    su2_coherent,
)

__all__ = ["MAX_TWO_S", "SchemaError", "state_from_dict", "state_to_dict", "load_state", "save_state"]

# the state constructor of each form, called with the spin and the payload read from the file
FORMS = {"matrix": SpinSector, "diag": diag_sector, "pure": pure_sector, "fock": fock_sector, "coherent": su2_coherent}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _sector_from_entry(entry: dict) -> tuple[float, SpinSector]:
    """One shell: a bad field raises a ValueError that starts with its name, and state_from_dict a SchemaError."""
    _require(isinstance(entry, dict), "sector entry must be an object")
    for key in ("two_S", "weight", "form", "data"):
        _require(key in entry, f"sector entry missing {key!r}")
    two_s = _check_two_s("two_S", entry["two_S"])
    weight = _check_reals("weight", entry["weight"])
    form, data, d = entry["form"], entry["data"], two_s + 1
    _require(form in FORMS, f"unknown form {form!r}; expected one of {tuple(FORMS)}")
    if form in ("matrix", "pure"):  # [re, im] pairs, read as complex numbers
        payload = _check_reals(f"{form} data", data, (d, d, 2) if form == "matrix" else (d, 2)).view(complex)[..., 0]
    elif form == "diag":
        payload = _check_reals("diag data", data, (d,))
    elif form == "fock":
        _require(isinstance(data, dict) and "two_m" in data, "fock data must be {'two_m': int}")
        payload = _check_int("fock two_m", data["two_m"], -two_s, two_s, span="[-2S, 2S]") / 2.0
    else:
        _require(isinstance(data, dict) and "theta" in data and "phi" in data,
                 "coherent data must be {'theta': number, 'phi': number}")
        payload = Direction(_check_reals("coherent theta", data["theta"]), _check_reals("coherent phi", data["phi"]))
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
    sectors = []
    for w, sec in as_shells(obj):
        rho = sec.rho
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
    doc = state_to_dict(obj, metadata=metadata)  # a refused obj leaves no file behind
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
