"""State files: the canonical JSON schema consumed and produced by the CLI.

Layout::

    {"sectors": [{"two_S": int, "weight": float, "form": ..., "data": ...}]}

with one entry per shell and form-specific payloads:

* "matrix"   - row-major (2S+1)^2 entries as [re, im] pairs, m descending
* "diag"     - list of 2S+1 eigenvalues in the |S,m> basis
* "pure"     - list of 2S+1 amplitudes as [re, im] pairs
* "fock"     - {"two_m": int}
* "coherent" - {"theta": float, "phi": float}
"""

from __future__ import annotations

import json

import numpy as np

from .angmom import _check_int
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

FORMS = ("matrix", "diag", "pure", "fock", "coherent")
MAX_TWO_S = 200  # the spin range the numerics are verified over (see README)


class SchemaError(ValueError):
    """The file does not follow the state schema."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _sector_from_entry(entry: dict) -> tuple[float, SpinSector]:
    _require(isinstance(entry, dict), "sector entry must be an object")
    for key in ("two_S", "weight", "form", "data"):
        _require(key in entry, f"sector entry missing {key!r}")
    # a refusal here is a ValueError, which state_from_dict raises as a SchemaError
    two_s = _check_int("two_S", entry["two_S"], 0, MAX_TWO_S, span="[0, MAX_TWO_S]")
    weight = entry["weight"]
    _require(isinstance(weight, (int, float)) and not isinstance(weight, bool), "weight must be a number")
    form = entry["form"]
    _require(form in FORMS, f"unknown form {form!r}; expected one of {FORMS}")
    data = entry["data"]
    d = two_s + 1
    spin = two_s / 2.0
    try:
        weight = float(weight)
        if form == "matrix":
            _require(isinstance(data, list) and len(data) == d, f"matrix form needs {d} rows")
            rows = []
            for row in data:
                _require(isinstance(row, list) and len(row) == d, f"matrix rows need {d} entries")
                rows.append([complex(re, im) for re, im in row])
            sec = SpinSector(spin, np.array(rows))
        elif form == "diag":
            _require(isinstance(data, list) and len(data) == d, f"diag form needs {d} entries")
            sec = diag_sector(spin, [float(x) for x in data])
        elif form == "pure":
            _require(isinstance(data, list) and len(data) == d, f"pure form needs {d} amplitudes")
            sec = pure_sector(spin, [complex(re, im) for re, im in data])
        elif form == "fock":
            _require(isinstance(data, dict) and "two_m" in data, "fock form needs {'two_m': int}")
            sec = fock_sector(spin, data["two_m"] / 2.0)
        else:  # coherent
            _require(isinstance(data, dict) and "theta" in data and "phi" in data,
                     "coherent form needs {'theta': ..., 'phi': ...}")
            sec = su2_coherent(spin, Direction(float(data["theta"]), float(data["phi"])))
    except SchemaError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # JSON integers beyond float range overflow
        raise SchemaError(f"invalid sector payload (two_S={two_s}, form={form}): {exc}") from exc
    return weight, sec


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
