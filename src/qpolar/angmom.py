"""Angular-momentum algebra: exact half-integers, spin matrices and Wigner rotations.

Spins and magnetic quantum numbers are carried as :class:`HalfInt` (twice the
value, stored as an exact integer), so half-integer bookkeeping never touches
floats.

All matrices produced here index both rows and columns by m in *descending*
order (m = j at row 0).  Euler angles follow the active z-y-z convention,
D(alpha, beta, gamma) = exp(-i alpha Jz) exp(-i beta Jy) exp(-i gamma Jz).
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "HalfInt",
    "half",
    "wigner_small_d",
    "wigner_D",
    "EulerAngles",
    "rotation_matrix",
]

MAX_TWO_S = 200  # the spin range the numerics are verified over (see README)
MAX_ENTRIES = 2_000_000  # float64 entries, 16 MB, of one search Jacobian, diagonal block stack or Q pair table
_LISTS = {list, tuple, range}  # the types a list of numbers may have, besides an ndarray


def _cache(maxsize: int | None):
    """`functools.lru_cache(maxsize)` whose result is made read-only on a miss: an ndarray, or each ndarray of a
    tuple (other entries, such as None or an int, are kept as they are).  A hit is served by lru_cache alone."""
    def wrap(build):
        @wraps(build)
        def frozen(*key):
            out = build(*key)
            for a in out if isinstance(out, tuple) else (out,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            return out
        return lru_cache(maxsize)(frozen)
    return wrap


def _is_int(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, lo: int, hi: int | None = None, span: str | None = None) -> int:
    """`value` as an int if it is an integer, not a bool, in [lo, hi] (no upper bound when hi is None).

    Anything else raises a ValueError naming the argument and its range; `span` writes the
    bounds symbolically, as "[1, 2S]" for [lo, hi] or "2*max_ell+1" for lo.
    """
    if _is_int(value) and lo <= value and (hi is None or value <= hi):
        return int(value)
    bounds = str(lo) if hi is None else f"[{lo}, {hi}]"
    bounds = f"{span} = {bounds}" if span else bounds
    raise ValueError(f"{name} must be an integer {'>=' if hi is None else 'in'} {bounds}, got {value!r}")


def _check_spin(name: str, value) -> HalfInt:
    """`value` as a HalfInt if it is a spin: an integer or half-integer with 2S in [0, MAX_TWO_S]."""
    try:
        if 0 <= (spin := half(value)).twice <= MAX_TWO_S:
            return spin
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer or half-integer with 2S in [0, MAX_TWO_S] = [0, {MAX_TWO_S}], "
                     f"got {value!r}")


def _check_two_s(name: str, value) -> int:
    """`value` as an int if it is a 2S as a state file or --two-s gives it: an integer in [0, MAX_TWO_S]."""
    return _check_int(name, value, 0, MAX_TWO_S, span="[0, MAX_TWO_S]")


def _check_reals(name: str, value, shape: tuple | None = (), complex_ok: bool = False):
    """`value` as finite real (with complex_ok, complex) numbers: a float array of `shape`, a float for ().

    A None first length in `shape` takes any length; `shape=None` takes a number or an ndarray of any
    shape, which broadcasts.  An ndarray of integer or float (or complex) dtype is read whole, and nested
    lists, tuples and ranges with one pass over the set of their entry types.  A bool, a string, None, a
    NaN, an infinity or an integer past the float range is refused: only then is `value` walked, to name
    the first bad entry, as "name[i][j] must be a finite number, got ..." or "name[i] must be a list of
    n entries, got ...".
    """
    kind, dtype = (numbers.Complex, complex) if complex_ok else (numbers.Real, float)
    if shape is None:
        shape = value.shape if isinstance(value, np.ndarray) else ()
    if not (shape or isinstance(value, np.ndarray)):
        return dtype(_walk_reals(name, value, (), kind))
    dims = [-1 if n is None else n for n in shape]
    if isinstance(value, np.ndarray) and value.dtype.kind in ("iufc" if complex_ok else "iuf"):
        if value.ndim == len(dims) and all(n in (-1, m) for n, m in zip(dims, value.shape)):
            arr = np.array(value, dtype)
            if np.isfinite(arr).all():
                return arr if arr.ndim else dtype(arr)
    elif type(value) in _LISTS and shape[0] in (None, len(value)):
        flat = value
        for n in shape[1:]:  # each level a list of lists of n entries, flattened into the next
            if not (set(map(type, flat)) <= _LISTS and set(map(len, flat)) <= {n}):
                break
            flat = list(itertools.chain.from_iterable(flat))
        else:
            try:  # a NaN or an infinity is caught by isfinite, an integer past the float range overflows
                if all(t is not bool and issubclass(t, kind) for t in set(map(type, flat))):
                    arr = np.array(flat, dtype).reshape(dims)
                    if np.isfinite(arr).all():
                        return arr
            except OverflowError:
                pass
    # a valid input read here is one the whole reads pass on, such as a list of ndarray rows
    return np.array(_walk_reals(name, value, shape, kind), dtype).reshape(dims)


def _walk_reals(name: str, value, shape: tuple, kind: type):
    """`value` read entry by entry as nested lists of `shape`, naming the first entry `_check_reals` refuses."""
    if shape:
        if not ((type(value) in _LISTS or isinstance(value, np.ndarray) and value.ndim)
                and shape[0] in (None, len(value))):
            count = "" if shape[0] is None else f" of {shape[0]} entries"
            raise ValueError(f"{name} must be a list{count}, got {value!r}")
        return [_walk_reals(f"{name}[{i}]", x, shape[1:], kind) for i, x in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, kind) or not (
            abs(value.real) <= sys.float_info.max and abs(value.imag) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_type(name: str, value, cls: type | tuple[type, ...]):
    """`value` if it is a `cls`, or one of a tuple of them; anything else raises a ValueError naming the argument."""
    if isinstance(value, cls):
        return value
    names = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
    raise ValueError(f"{name} must be of type {names}, got {value!r}")


def _check_each(name: str, values, cls: type) -> list:
    """`values` as a list of `cls` entries, checked by the set of their types; the first that is none is named.

    A `values` that cannot be iterated, such as one bare `cls`, is named whole.
    """
    try:
        entries = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a list of {cls.__name__} entries, got {values!r}") from None
    values = list(entries)
    if not all(issubclass(t, cls) for t in set(map(type, values))):
        i = next(i for i, v in enumerate(values) if not isinstance(v, cls))
        _check_type(f"{name}[{i}]", values[i], cls)
    return values


def _check_norm(name: str, v: np.ndarray) -> float:
    """The norm of the finite vector `v`, refused with a ValueError naming it unless finite, nonzero and normal."""
    with np.errstate(over="ignore"):  # a norm that still overflows is refused just below
        n = float(np.linalg.norm(v))
        # the squares overflowed, or summed below the normal floats and lost digits: scale first
        if (n == math.inf or n * n < sys.float_info.min) and 0.0 < (top := float(np.abs(v).max())) < math.inf:
            n = top * float(np.linalg.norm(v / top))
    if not 0.0 < n < math.inf:
        raise ValueError(f"{name} must have a finite, nonzero norm, got {n}")
    if n < sys.float_info.min:  # a subnormal norm has lost the digits a division by it needs
        raise ValueError(f"{name} must have a norm of at least {sys.float_info.min}, got {n}")
    return n


def _check_tol(tol) -> None:
    """Refuse a tolerance that is not a positive, finite real number, a bool included."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 < tol <= sys.float_info.max):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


# the errors the CLI maps to its exit codes, defined here so that it needs none of the modules that raise them;
# stateio, stokes and search export them
class SchemaError(ValueError):
    """The file does not follow the state schema."""


class IllConditionedError(ValueError):
    """Moment-to-multipole system is rank deficient for the given directions."""


class InfeasibleError(ValueError):
    """The requested constraint class / order combination has no feasible state."""


class _Frozen:
    """No attribute is set or deleted once built, and every ndarray held is read-only: `__init__` sets them with
    `_freeze`, a frozen dataclass (made by `_read_only`) through `__post_init__`, `copy`, `deepcopy` and `pickle`
    through `__setstate__`."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def _freeze(self, **values) -> None:
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __post_init__(self):
        self._freeze(**vars(self))

    def __setstate__(self, state):
        for part in state if isinstance(state, tuple) else (state,):  # (__dict__, slots) or __dict__
            self._freeze(**(part or {}))


def _read_only(cls: type) -> type:
    """`cls` made a frozen dataclass, or a NamedTuple kept as it is, that refuses a set or a delete with
    `_Frozen`'s message, in place of the dataclass's FrozenInstanceError or the tuple's own."""
    if not issubclass(cls, tuple):
        cls = dataclass(frozen=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _Frozen.__setattr__
    return cls


class HalfInt(_Frozen):
    """An integer or half-integer quantum number, stored exactly as twice its value."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not _is_int(twice):
            raise ValueError(f"twice must be an integer, got {twice!r}")
        self._freeze(twice=int(twice))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __eq__(self, other):
        try:
            return self.twice == half(other).twice
        except ValueError:
            return NotImplemented

    def __hash__(self):
        return hash(self.twice)

    def __repr__(self):
        return f"HalfInt({self})"

    def __str__(self):
        return f"{self.twice}/2" if self.twice % 2 else str(self.twice // 2)


def half(value) -> HalfInt:
    """Coerce a HalfInt, or a real number other than a bool whose double is an integer.

    Anything else, a non-finite float included, raises ValueError.
    """
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        twice = 2 * value
        if -math.inf < twice < math.inf and twice == int(twice):  # exact for ints past the float range
            return HalfInt(int(twice))
    raise ValueError(f"cannot interpret {value!r} as an integer or half-integer")


@_cache(None)
def _spin_arrays(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only spin matrices (Jx, Jy, Jz) of the spin-j representation."""
    j = twice_j / 2.0
    ms = np.arange(twice_j, -twice_j - 1, -2) / 2.0  # m descending
    jz = np.diag(ms.astype(complex))
    jp = np.zeros((twice_j + 1, twice_j + 1), dtype=complex)
    for i in range(1, twice_j + 1):
        m = ms[i]  # J+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m * (m + 1))
    jm = jp.conj().T
    return 0.5 * (jp + jm), -0.5j * (jp - jm), jz


@_cache(None)
def _jy_eigen(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    # the spectrum of Jy is exactly -j..j (ascending, as eigh orders it); the
    # exact values keep the phases exp(-i beta m) free of eigenvalue rounding
    return np.arange(-twice_j, twice_j + 1, 2) / 2.0, np.linalg.eigh(_spin_arrays(twice_j)[1])[1]


def _d_column(twice_j: int, col, theta) -> np.ndarray:
    """Column `col` of d^j(theta) at every theta, as [..., m'] (m' descending), from Jy's eigenvectors: the one
    product that forms d^j, whose `col=slice(None)` at one theta is d^j transposed, as [m, m']."""
    lam, vecs = _jy_eigen(twice_j)
    theta = np.asarray(theta, dtype=float)[..., None]
    return ((np.exp(-1j * theta * lam) * vecs[col].conj()) @ vecs.T).real


def wigner_small_d(j, beta: float) -> np.ndarray:
    """Wigner small-d matrix d^j_{m'm}(beta) = exp(-i beta Jy).

    Evaluated as V exp(-i beta Lambda) V^dagger from the eigendecomposition
    Jy = V Lambda V^dagger, which stays orthogonal to rounding at every spin.
    Real orthogonal (2j+1)x(2j+1) array, rows/columns indexed by m', m
    descending from +j.
    """
    return _d_column(_check_spin("j", j).twice, slice(None), _check_reals("beta", beta)).T


@_read_only
class EulerAngles(_Frozen):
    """Active z-y-z Euler angles (alpha, beta, gamma), in radians."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        self._freeze(**{name: _check_reals(name, getattr(self, name)) for name in ("alpha", "beta", "gamma")})


def wigner_D(j, angles: EulerAngles) -> np.ndarray:
    """Wigner D-matrix D^j_{m'm} = exp(-i m' alpha) d^j_{m'm}(beta) exp(-i m gamma)."""
    j = _check_spin("j", j)
    angles = _check_type("angles", angles, EulerAngles)
    d = wigner_small_d(j, angles.beta)
    ms = np.arange(j.twice, -j.twice - 1, -2) / 2.0  # m descending
    return (
        np.exp(-1j * ms[:, None] * angles.alpha)
        * d
        * np.exp(-1j * ms[None, :] * angles.gamma)
    )


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """The 3x3 orthogonal matrix Rz(alpha) Ry(beta) Rz(gamma) of the same rotation."""
    angles = _check_type("angles", angles, EulerAngles)

    def rz(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(angles.alpha) @ ry(angles.beta) @ rz(angles.gamma)
