"""Finite metric-measure spaces: core types, validation, scaling, couplings, I/O.

The objects here are small and immutable.  A space is a tuple of point labels,
nonnegative atom weights and a semimetric matrix.  A coupling is a plain float
array: a nonnegative matrix whose marginals match two weight vectors of equal
total mass.  It is the finite stand-in for a pair of measure-preserving
parametrizations of the two spaces over a common mass interval, recorded
through the masses of their cell intersections.  Pulling the two semimetrics
back onto the support cells of a coupling yields a :class:`SemiDistancePair`,
which is what every solver in this package actually works on.  Each object
is checked in one place: the :class:`FiniteMMSpace` constructor checks a
space by the rules of :func:`validate`, :func:`coupling_from_matrix` the
shape, signs and marginals of a coupling (:func:`pullback_pair` calls it), and
the :class:`SemiDistancePair` constructor a pair.  Each weight vector,
matrix, function vector, point map or index list, coupling, whole number and
nonnegative scalar meets one rule: :func:`_weight_violations`,
:func:`_semimetric_violations`, :func:`_function_violations`,
:func:`_index_violations`, :func:`_coupling_violations`, :func:`whole_number`
or :func:`nonnegative`.

Zero-weight points are kept in storage but excluded from supports; all
comparisons between spaces are meant up to relabeling of the support.
"""

from __future__ import annotations

import io
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpaceError, SpaceFormatError
from .transport import northwest_plan

#: absolute tolerance for mass bookkeeping (marginals, totals)
MASS_TOL = 1e-12
#: absolute tolerance for metric invariants (symmetry, diagonal, triangle)
METRIC_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FiniteMMSpace:
    """A finite weighted point set with a semimetric matrix.

    ``weights[i]`` is the mass of the atom at point ``labels[i]`` and
    ``dist[i, j]`` the distance between points ``i`` and ``j``.  The
    constructor is the one check of a space: it raises :class:`InvalidSpaceError`
    naming every violation :func:`validate` reports, and the stored arrays are
    read-only, so every space is valid.
    """

    labels: tuple[str, ...]
    weights: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "dist", _readonly(self.dist))
        report = validate(self.labels, self.weights, self.dist)
        if not report.ok:
            raise InvalidSpaceError("; ".join(report.violations))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> np.ndarray:
        """Indices of points with strictly positive mass."""
        return np.flatnonzero(self.weights > 0.0)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"FiniteMMSpace(n={self.n}, mass={self.total_mass:.6g})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; empty ``violations`` means a valid space."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _weight_violations(w: np.ndarray, n: int, name: str) -> list[str]:
    """The weight rule: shape ``(n,)``, finite, nonnegative; ``name`` names one
    entry (``"weight"`` gives :func:`validate`'s wording)."""
    if w.shape != (n,):
        return [f"{name}s has shape {w.shape}, expected ({n},)"]
    if not np.isfinite(w).all():
        return [f"{name}s contain non-finite entries"]
    if (w < 0.0).any():
        return [f"negative {name} at index {np.flatnonzero(w < 0.0)[0]}"]
    return []


def _function_violations(f: np.ndarray, n: int, name: str) -> list[str]:
    """The function rule: shape ``(n,)`` and finite entries."""
    if f.shape != (n,):
        return [f"{name} has shape {f.shape}, expected ({n},)"]
    if not np.isfinite(f).all():
        return [f"{name} contains non-finite entries"]
    return []


def _index_violations(a: np.ndarray, name: str, n: int | None = None, length: int | None = None) -> list[str]:
    """The index rule: integer entries (finite whole floats count), one vector, of
    ``length`` entries when given, each in ``0..n-1`` when ``n`` is given."""
    whole = a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.isfinite(a).all() and (a == np.round(a)).all())
    want = a.size if length is None else length
    if a.size and not whole:
        return [f"{name} must hold integer point indices"]
    if a.shape != (want,):
        return [f"{name} has shape {a.shape}, expected ({want},)"]
    if n is not None and a.size and (a.min() < 0 or a.max() >= n):
        return [f"{name} has indices outside 0..{n - 1}"]
    return []


def _as_indices(values, name: str, n: int | None = None, length: int | None = None) -> np.ndarray:
    """Caller-supplied point indices as an integer vector, or the ValueError of :func:`_index_violations`."""
    a = np.asarray(values)
    _refuse(_index_violations(a, name, n, length))
    return a.astype(int)


def _refuse(violations: list[str]) -> None:
    """Raise the violations of one input check, if any, as one ValueError."""
    if violations:
        raise ValueError("; ".join(violations))


def _semimetric_violations(d: np.ndarray, n: int, name: str) -> list[str]:
    """The matrix rule: ``n x n``, finite, and nonnegative, symmetric and zero on
    the diagonal within :data:`METRIC_TOL`; a bad shape or a non-finite entry is reported alone."""
    if d.shape != (n, n):
        return [f"{name} has shape {d.shape}, expected ({n}, {n})"]
    if not np.isfinite(d).all():
        return [f"{name} contains non-finite entries"]
    v = []
    if (d < -METRIC_TOL).any():
        v.append(f"{name} contains negative entries")
    gap = np.abs(d - d.T)
    if gap.max(initial=0.0) > METRIC_TOL:
        i, j = np.unravel_index(np.argmax(gap), d.shape)
        v.append(f"{name} is asymmetric at ({i}, {j}): |d_ij - d_ji| = {gap[i, j]:.3g}")
    diag = np.abs(d.diagonal()).max(initial=0.0)
    if diag > METRIC_TOL:
        v.append(f"{name} diagonal is not zero (max {diag:.3g})")
    return v


def validate(labels, weights, dist) -> ValidationReport:
    """Check the labels, weights and distances of a would-be finite mm-space.

    All violations are reported, none raised; the :class:`FiniteMMSpace`
    constructor turns a non-empty report into :class:`InvalidSpaceError`.
    Labels are compared as strings, as a space stores them.
    """
    v: list[str] = []
    n = len(labels)
    w, d = np.asarray(weights, dtype=float), np.asarray(dist, dtype=float)
    if n < 1:
        v.append("space must contain at least one point")
        return ValidationReport(tuple(v))
    if len({str(x) for x in labels}) != n:
        v.append("labels are not unique")
    weight_v = _weight_violations(w, n, "weight")
    if w.shape != (n,):
        return ValidationReport(tuple(v + weight_v))
    dist_v = _semimetric_violations(d, n, "dist")
    if d.shape != (n, n):
        return ValidationReport(tuple(v + dist_v))
    v += weight_v + dist_v
    if not np.all(np.isfinite(d)):
        return ValidationReport(tuple(v))
    # triangle inequality over all ordered triples, one pivot k at a time so
    # that memory stays O(n^2): excess d_ij - (d_ik + d_kj)
    worst = max(float((d - (d[:, k : k + 1] + d[k : k + 1, :])).max()) for k in range(n))
    if worst > METRIC_TOL:
        v.append(f"triangle inequality violated by {worst:.3g}")
    if np.all(w <= 0.0) or float(w.sum()) <= 0.0:
        v.append("total mass must be positive")
    return ValidationReport(tuple(v))


def mm_space(weights, dist, labels=None) -> FiniteMMSpace:
    """A :class:`FiniteMMSpace` (checked as it is built), labelled ``p0, p1, ...``
    unless ``labels`` are given."""
    if labels is None:
        labels = tuple(f"p{i}" for i in range(len(weights)))
    return FiniteMMSpace(labels, weights, dist)


def scale_measure(space: FiniteMMSpace, alpha: float) -> FiniteMMSpace:
    """Multiply every atom mass by a finite ``alpha`` > 0, leaving distances untouched."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"measure scale factor must be finite and positive, got {alpha}")
    return FiniteMMSpace(space.labels, space.weights * alpha, space.dist)


def lighter_first(X: FiniteMMSpace, Y: FiniteMMSpace):
    """The scale-and-gap rule for spaces of unequal total mass.

    Returns ``(A, B, gap, swapped)``: ``A`` is the lighter space, ``B`` the
    heavier one scaled down to the total of ``A``, ``gap`` the difference of
    the totals, and ``swapped`` tells whether ``A`` is ``Y``.  Totals within
    :data:`MASS_TOL` count as equal: both spaces come back unchanged with
    ``gap = 0.0``.
    """
    mX, mY = X.total_mass, Y.total_mass
    if abs(mX - mY) <= MASS_TOL:
        return X, Y, 0.0, False
    if mX > mY:
        return Y, scale_measure(X, mY / mX), mX - mY, True
    return X, scale_measure(Y, mX / mY), mY - mX, False


def normalized(space: FiniteMMSpace) -> FiniteMMSpace:
    """Rescale the measure to total mass one."""
    return scale_measure(space, 1.0 / space.total_mass)


def nonnegative(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless it is finite and
    at least 0 (NaN is not): the rule of every trade-off, tolerance and scale."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def whole_number(value, name: str, least: int) -> int:
    """``value`` as an ``int``, or a ValueError naming ``name`` unless it is a whole
    number of at least ``least`` (0 or 1): the rule of every count, order and size."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if not (whole and value >= least):
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound} and a whole number, got {value}")
    return int(value)


def metric_closure(d: np.ndarray) -> np.ndarray:
    """Shortest-path (Floyd-Warshall) closure of a symmetric defect matrix.

    The closure is the largest pseudometric below ``d``; a function is
    1-Lipschitz for ``d`` exactly when it is 1-Lipschitz for the closure.
    """
    out = np.array(d, dtype=float)
    n = out.shape[0]
    for k in range(n):
        np.minimum(out, out[:, k : k + 1] + out[k : k + 1, :], out=out)
    return out


# ---------------------------------------------------------------------------
# couplings


def _require_equal_mass(X: FiniteMMSpace, Y: FiniteMMSpace):
    if abs(X.total_mass - Y.total_mass) > 1e-9:
        raise ValueError(
            f"coupled spaces must carry equal total mass "
            f"({X.total_mass:.12g} vs {Y.total_mass:.12g}); scale first"
        )


def _coupling_violations(X: FiniteMMSpace, Y: FiniteMMSpace, pi: np.ndarray) -> list[str]:
    """The coupling rule: shape ``(X.n, Y.n)``, every entry at least -1e-9, and
    every row and column sum within 1e-9 of the matching weight."""
    if pi.shape != (X.n, Y.n):
        return [f"coupling shape {pi.shape} does not match ({X.n}, {Y.n})"]
    if not np.all(pi >= -1e-9):
        return ["coupling has negative or NaN entries"]
    row_err = float(np.max(np.abs(pi.sum(axis=1) - X.weights), initial=0.0))
    col_err = float(np.max(np.abs(pi.sum(axis=0) - Y.weights), initial=0.0))
    if not (row_err <= 1e-9 and col_err <= 1e-9):
        return [f"coupling marginals do not match the spaces (row off {row_err:.3g}, col off {col_err:.3g})"]
    return []


def coupling_from_matrix(X: FiniteMMSpace, Y: FiniteMMSpace, pi) -> np.ndarray:
    """``pi`` as a float matrix; ValueError unless it couples ``X`` and ``Y``
    by :func:`_coupling_violations`."""
    pi = np.asarray(pi, dtype=float)
    _refuse(_coupling_violations(X, Y, pi))
    return pi


def diagonal_coupling(X: FiniteMMSpace) -> np.ndarray:
    """The coupling of a space with itself that keeps every atom in place."""
    return np.diag(X.weights)


def product_coupling(X: FiniteMMSpace, Y: FiniteMMSpace) -> np.ndarray:
    """Independent coupling ``w_X w_Y^T / m`` of two equal-mass spaces."""
    _require_equal_mass(X, Y)
    return np.outer(X.weights, Y.weights) / X.total_mass


def northwest_coupling(X: FiniteMMSpace, Y: FiniteMMSpace, row_order, col_order) -> np.ndarray:
    """A vertex of the transportation polytope obtained by greedy filling.

    Filling visits the rows of ``X`` in ``row_order`` and the columns of ``Y``
    in ``col_order``, so permuting the orders sweeps through the polytope's
    extreme points.
    """
    _require_equal_mass(X, Y)
    return northwest_plan(X.weights, Y.weights, row_order, col_order)


def random_coupling(X: FiniteMMSpace, Y: FiniteMMSpace, rng: np.random.Generator) -> np.ndarray:
    """Random coupling: a convex mix of three random transportation vertices."""
    _require_equal_mass(X, Y)
    coeffs = rng.dirichlet(np.ones(3))
    pi = np.zeros((X.n, Y.n))
    for c in coeffs:
        pi += c * northwest_plan(
            X.weights, Y.weights, rng.permutation(X.n), rng.permutation(Y.n)
        )
    return pi


# ---------------------------------------------------------------------------
# pulled-back semimetric pairs


@dataclass(frozen=True, eq=False)
class SemiDistancePair:
    """Two symmetric zero-diagonal matrices over one weighted index set.

    The triangle inequality is deliberately not required: instances arise as
    pullbacks of metrics onto coupling cells (those do satisfy it) but the
    solvers only rely on symmetry and the zero diagonal.  The constructor is
    the one check of a pair: it raises one ``ValueError`` naming every
    violation of the rules :func:`validate` applies (the weights set the
    length), and the stored arrays are read-only, so every pair is valid.
    """

    weights: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    cells: tuple | None = None  # (i, j) provenance indices when pulled back

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "d1", _readonly(self.d1))
        object.__setattr__(self, "d2", _readonly(self.d2))
        n = self.weights.size
        v = _weight_violations(self.weights, n, "weight")
        _refuse(v + _semimetric_violations(self.d1, n, "d1") + _semimetric_violations(self.d2, n, "d2"))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)


def semidist_pair(weights, d1, d2) -> SemiDistancePair:
    return SemiDistancePair(weights, d1, d2)


def pullback_pair(X: FiniteMMSpace, Y: FiniteMMSpace, pi) -> SemiDistancePair:
    """Pull both metrics back onto the support cells of a coupling.

    Cell ``(i, j)`` carries mass ``pi[i, j]``; between two cells the first
    matrix reads the distance in ``X`` and the second the distance in ``Y``.
    Zero-mass cells do not appear.  ``pi`` must pass
    :func:`coupling_from_matrix`.
    """
    pi = coupling_from_matrix(X, Y, pi)
    ii, jj = np.nonzero(pi > 0.0)
    return SemiDistancePair(
        pi[ii, jj],
        X.dist[np.ix_(ii, ii)],
        Y.dist[np.ix_(jj, jj)],
        cells=tuple(zip(ii.tolist(), jj.tolist())),
    )


# ---------------------------------------------------------------------------
# witnesses of almost-isometry (shared record; searched for in mmdist.limits)


@dataclass(frozen=True, eq=False)
class Witness:
    """An almost-isometry certificate between two spaces.

    ``p[i]`` maps point ``i`` of the first space to a point index of the
    second, ``subset`` lists the retained first-space points, and ``eps``
    (finite and nonnegative) bounds both the discarded mass and the pairwise
    distance distortion of ``p`` on the retained set.
    """

    p: np.ndarray
    subset: np.ndarray
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "p", _as_indices(self.p, "witness map"))
        object.__setattr__(self, "subset", np.sort(_as_indices(self.subset, "witness subset")))
        object.__setattr__(self, "eps", nonnegative(self.eps, "eps"))

    def violations(self, Xn: FiniteMMSpace, X: FiniteMMSpace) -> list[str]:
        """Ways the witness fails for ``Xn`` to ``X``, each beyond 1e-9."""
        v = _index_violations(self.p, "witness map", X.n, Xn.n)
        v += _index_violations(self.subset, "witness subset", Xn.n)
        if v:
            return v
        keep = np.zeros(Xn.n, dtype=bool)
        keep[self.subset] = True
        dropped = float(Xn.weights[~keep].sum())
        if dropped > self.eps + 1e-9:
            v.append(f"dropped mass {dropped:.6g} exceeds eps {self.eps:.6g}")
        s = self.subset
        if len(s) >= 2:
            dn = Xn.dist[np.ix_(s, s)]
            dx = X.dist[np.ix_(self.p[s], self.p[s])]
            distortion = float(np.max(np.abs(dn - dx)))
            if distortion > self.eps + 1e-9:
                v.append(f"distortion {distortion:.6g} exceeds eps {self.eps:.6g}")
        return v


# ---------------------------------------------------------------------------
# file format


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any double exactly
    return format(float(x), ".17g")


def write_space(path, space: FiniteMMSpace) -> None:
    """Write a space as JSON with full-precision numbers."""
    labels = json.dumps(list(space.labels))
    weights = "[" + ", ".join(_fmt(x) for x in space.weights) + "]"
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt(x) for x in row) + "]" for row in space.dist
    )
    text = (
        "{\n"
        f'  "labels": {labels},\n'
        f'  "weights": {weights},\n'
        f'  "dist": [\n    {rows}\n  ]\n'
        "}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def read_space(path) -> FiniteMMSpace:
    """Read a space file; see :func:`write_space` for the schema.

    Invariant violations raise :class:`InvalidSpaceError`; structural
    problems raise :class:`SpaceFormatError`.
    """
    return FiniteMMSpace(*_parse_space(Path(path).read_bytes(), path))


def _json_doc(data: bytes, path):
    """The JSON document in a file's bytes, decoded as ``Path.read_text`` decodes them."""
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: not valid JSON ({exc})") from exc


def _json_floats(entries: list, path) -> np.ndarray:
    """JSON numbers as a float array; any other entry is a SpaceFormatError.

    numpy alone would read ``true`` as 1.0 and the string ``"0.5"`` as 0.5.
    """
    for x in entries:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SpaceFormatError(f"{path}: non-numeric entry {x!r}")
    try:
        return np.array(entries, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise SpaceFormatError(f"{path}: non-numeric entry ({exc})") from exc


def _parse_space(data: bytes, path) -> tuple[list, np.ndarray, np.ndarray]:
    """The ``(labels, weights, dist)`` of a space file, unchecked beyond its structure."""
    doc = _json_doc(data, path)
    if not isinstance(doc, dict):
        raise SpaceFormatError(f"{path}: expected a JSON object")
    missing = {"labels", "weights", "dist"} - set(doc)
    if missing:
        raise SpaceFormatError(f"{path}: missing keys {sorted(missing)}")
    labels = doc["labels"]
    weights = doc["weights"]
    dist = doc["dist"]
    if not isinstance(labels, list) or not isinstance(weights, list) or not isinstance(dist, list):
        raise SpaceFormatError(f"{path}: labels, weights and dist must be arrays")
    n = len(labels)
    if len(weights) != n:
        raise SpaceFormatError(f"{path}: {n} labels but {len(weights)} weights")
    if len(dist) != n or any(not isinstance(r, list) or len(r) != n for r in dist):
        raise SpaceFormatError(f"{path}: dist must be a {n}x{n} matrix")
    w = _json_floats(weights, path)
    d = _json_floats([x for row in dist for x in row], path).reshape(n, n)
    return labels, w, d
