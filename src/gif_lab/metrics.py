"""Particle sampling, Wasserstein-2 distances, and least-squares fits.

Sampling is counter-based: every particle draws from its own Philox stream
keyed by ``(seed, domain, particle_index)``, so particle ``i`` of a cloud is
the same no matter how many particles are requested and independent draws
(target, source noise, projections, perturbations) never share a stream.

``keyed_generator`` is the reference for one stream: a numpy
``Generator(Philox(key))`` whose ``random()`` calls feed the Marsaglia polar
transform.  Clouds do not build one generator per particle, though.  They
run Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) in numpy over all particle indices at once and reproduce
``np.random.Philox`` bit for bit: the same key, counter 1 for the first
4-word block, the same ``(x >> 11) * 2**-53`` uniforms, and the polar
rejection run as masked rounds over the particles that still need normals.
Each chunk of particles draws its first block(s), takes the leading
uniforms and runs the rounds those words allow; the rows that need another
block are stashed, and after the last chunk one rejection loop over all of
them draws the further blocks.  A particle's words depend only on its key
and counter, not on which pass reads them.  The logarithm of the accepted
``s`` is taken with ``math.log`` (the C library), not ``np.log``: numpy's
SIMD logarithm can differ from it in the last bit, and then the particle
would not match its stream.

Exact W2 runs scipy's compiled assignment solver (Crouse 2016, the one
``scipy.optimize.linear_sum_assignment`` runs) on a squared-distance matrix
built here in numpy, bit for bit ``cdist(..., "sqeuclidean")``.  The solver's
extension module is loaded on its own at import, without importing scipy:
``scipy.optimize`` costs about 320 modules, 0.4 s and 48 MB, and nothing
else in the package needs it.  Where scipy's layout has no such module, the
first exact W2 imports ``scipy.optimize`` instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .artifacts import _read_rows, repr_lines, write_table
from .errors import (
    DegenerateInputError,
    InvalidParamError,
    SizeMismatchError,
    TooLargeError,
    _array_param,
    _int_param,
)
from .schedules import Schedule
from .targets import Target

__all__ = [
    "FitReport",
    "ParticleCloud",
    "keyed_generator",
    "linear_fit",
    "sample_gaussian",
    "sample_interpolant",
    "sample_source",
    "sample_target",
    "w2",
]

_TARGET_DOMAIN = 1
_SOURCE_DOMAIN = 2
_PROJ_DOMAIN = 3
NOISE_DOMAIN = 4

_INDEX_BITS = 48
_DOMAIN_BITS = 64 - _INDEX_BITS
_MASK64 = (1 << 64) - 1

_W2_EXACT_CAP = 4096
# Rows of the exact-W2 cost matrix built per pass; bounds the one temporary.
_COST_BLOCK = 64
_LSAP_MODULE = "scipy.optimize._lsap"

# Philox4x64-10 constants (Random123; identical in numpy's Philox)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)
# Particles per first-block pass of the vectorised draw; bounds its uint64
# temporaries.  The rows the passes stash (about a fifth at d = 2) share one
# rejection loop.
_CHUNK = 4096


def _check_stream(seed, domain):
    """(seed, domain) as Python ints, or InvalidParamError if either would not
    fit its key word and so alias another stream."""
    return (_int_param("seed", seed, f"[0, {1 << 64})"),
            _int_param("domain", domain, f"[0, {1 << _DOMAIN_BITS})"))


def keyed_generator(seed: int, domain: int, index: int) -> np.random.Generator:
    """Philox generator for one logical stream.

    The 128-bit key packs the user seed in one word and ``domain``/``index``
    in the other, so distinct (seed, domain, index) triples give independent
    streams.
    """
    seed, domain = _check_stream(seed, domain)
    index = _int_param("index", index, f"[0, {1 << _INDEX_BITS})")
    key = np.array([seed, (domain << _INDEX_BITS) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: np.uint64, x: np.ndarray):
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LO32, m >> _U32
    x_lo, x_hi = x & _LO32, x >> _U32
    t0 = m_lo * x_lo
    t1 = m_hi * x_lo + (t0 >> _U32)
    t2 = m_lo * x_hi + (t1 & _LO32)
    return m_hi * x_hi + (t1 >> _U32) + (t2 >> _U32), m * x


def _philox_block(key0: list, key1: np.ndarray, counter: int) -> np.ndarray:
    """(m, 4) uniforms of block ``counter`` of m streams keyed (key0, key1[j]).

    ``key0`` holds the first key word for each of the ten rounds; the second
    word is bumped here.
    """
    c0 = np.full(key1.shape, counter, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        k1 = key1 + np.uint64((r * _PHILOX_W[1]) & _MASK64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0[r], lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=1)
    return (words >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0)


def _polar_rounds(z: np.ndarray, rows: np.ndarray, done: np.ndarray, buf: np.ndarray,
                  pairs: int, next_block=None):
    """Marsaglia polar rounds for the particles ``rows`` of ``z``.

    ``done`` counts each row's accepted pairs and ``buf`` holds its unread
    uniforms; every row reads the same stream position.  Once fewer than two
    words are unread, ``next_block(rows)`` supplies the rows' next 4-word
    block; without it the rounds stop there.  Returns the rows still
    drawing, their ``done`` counts and their unread words.
    """
    while rows.size:
        if buf.shape[1] < 2:
            if next_block is None:
                break
            buf = np.concatenate((buf, next_block(rows)), axis=1)
        u = 2.0 * buf[:, 0] - 1.0
        v = 2.0 * buf[:, 1] - 1.0
        buf = buf[:, 2:]
        s = u * u + v * v
        ok = (s < 1.0) & (s != 0.0)
        s = s[ok]
        # libm's log, as the scalar stream uses; np.log may differ in the last bit
        log_s = np.fromiter(map(math.log, s.tolist()), dtype=np.float64, count=s.size)
        f = np.sqrt(-2.0 * log_s / s)
        at, col = rows[ok], 2 * done[ok]
        z[at, col] = u[ok] * f
        z[at, col + 1] = v[ok] * f
        done[ok] += 1
        more = done < pairs
        rows, done, buf = rows[more], done[more], buf[more]
    return rows, done, buf


def _philox_draw(seed: int, domain: int, n: int, d: int, lead: int):
    """Leading uniforms (n, lead) and polar normals (n, d) of particles 0..n-1.

    Row i equals ``lead`` calls of ``keyed_generator(seed, domain, i).random()``
    followed by d Marsaglia polar normals from the same stream, bit for bit.
    Each chunk of particles draws its first block(s) and runs the polar rounds
    those words allow; the rows that need more blocks are stashed, and one
    rejection loop finishes all of them.
    """
    seed, domain = _check_stream(seed, domain)
    if n > (1 << _INDEX_BITS):
        raise InvalidParamError(f"stream index out of range: {n - 1}")
    key0 = [np.uint64((seed + r * _PHILOX_W[0]) & _MASK64) for r in range(_PHILOX_ROUNDS)]
    key1 = np.arange(n, dtype=np.uint64) | np.uint64(domain << _INDEX_BITS)
    pairs = (d + 1) // 2
    first_blocks = -(-(lead + 2 * pairs) // 4)
    uniforms = np.empty((n, lead))
    z = np.empty((n, 2 * pairs))
    stash = []
    for start in range(0, n, _CHUNK):
        stop = min(n, start + _CHUNK)
        buf = np.concatenate(
            [_philox_block(key0, key1[start:stop], c) for c in range(1, first_blocks + 1)],
            axis=1)
        uniforms[start:stop] = buf[:, :lead]
        rest = _polar_rounds(z, np.arange(start, stop), np.zeros(stop - start, dtype=np.intp),
                             buf[:, lead:], pairs)
        if rest[0].size:
            stash.append(rest)
    if stash:
        # every stashed chunk stopped at the same counter with the same
        # unread width; a chunk whose rows all finished is not stashed
        counter = first_blocks

        def next_block(rows):
            nonlocal counter
            counter += 1
            return _philox_block(key0, key1[rows], counter)

        _polar_rounds(z, *(np.concatenate(part) for part in zip(*stash)), pairs, next_block)
    return uniforms, np.ascontiguousarray(z[:, :d])


@dataclass(frozen=True)
class ParticleCloud:
    """A set of particles, one read-only (n, d) row per particle."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _array_param("points", self.points, "an (n, d) cloud").copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def write_csv(self, path_or_buf, timestamp: Union[str, None] = None) -> None:
        """Write the cloud with header ``x1,...,xd``; see ``artifacts.write_table``."""
        write_table(path_or_buf, (f"x{j + 1}" for j in range(self.dim)),
                    repr_lines(self.points), timestamp)

    @classmethod
    def read_csv(cls, path_or_buf) -> "ParticleCloud":
        """Read a cloud written by ``write_csv``.

        Blank lines and lines starting with ``#`` are skipped and the first
        remaining line is the header.  A row whose field count differs from
        the first data row's raises ``SizeMismatchError``, a field that is
        not a number ``InvalidParamError``; both name the line.
        """
        if hasattr(path_or_buf, "read"):
            return cls(points=_read_rows(path_or_buf))
        with open(path_or_buf, encoding="utf-8") as fh:
            return cls(points=_read_rows(fh))


def sample_gaussian(dim: int, n: int, seed: int) -> ParticleCloud:
    """n draws from N(0, I_dim), one Philox stream per particle."""
    n = _int_param("n", n, "[1, inf)")
    dim = _int_param("dim", dim, "[1, inf)")
    _, z = _philox_draw(seed, _SOURCE_DOMAIN, n, dim, 0)
    return ParticleCloud(points=z)


def sample_target(target: Target, n: int, seed: int) -> ParticleCloud:
    """n draws from the mixture; particle i selects its component from the
    first uniform of stream (seed, i), then draws its noise."""
    n = _int_param("n", n, "[1, inf)")
    u, z = _philox_draw(seed, _TARGET_DOMAIN, n, target.dim, 1)
    cumw = np.cumsum(target.weights)
    comp = np.minimum(np.searchsorted(cumw, u[:, 0], side="right"),
                      target.n_components - 1)
    z *= target.sigma
    z += target.means[comp]
    return ParticleCloud(points=z)


def sample_interpolant(target: Target, sched: Schedule, t: float, n: int,
                       seed: int) -> ParticleCloud:
    """Draw a_t * Z + b_t * X1 with Z and X1 from separate stream domains.

    The same seed couples Z and X1 across calls: the particle i here is the
    exact combination of particle i of ``sample_gaussian`` and particle i of
    ``sample_target`` under that seed.
    """
    p = sched.eval(t)
    z = sample_gaussian(target.dim, n, seed)
    x1 = sample_target(target, n, seed)
    return ParticleCloud(points=p.a * z.points + p.b * x1.points)


def sample_source(target: Target, sched: Schedule, n: int, seed: int) -> ParticleCloud:
    """The time-0 marginal a_0 * Z + b_0 * X1 of the interpolation."""
    return sample_interpolant(target, sched, 0.0, n, seed)


def _load_lsap():
    """scipy's compiled ``linear_sum_assignment``, without importing scipy.

    Takes the extension module from ``sys.modules`` if scipy.optimize is
    already loaded, else loads ``<scipy>/optimize/_lsap<suffix>`` under its
    own name and leaves it in ``sys.modules``, so a later ``import
    scipy.optimize`` binds the same module.  None when scipy is missing or
    lays its files out otherwise; ``_w2_exact`` then imports the public one.
    """
    module = sys.modules.get(_LSAP_MODULE)
    if module is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None or not spec.submodule_search_locations:
            return None
        stem = os.path.join(spec.submodule_search_locations[0], "optimize", "_lsap")
        path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.isfile(stem + suffix)), None)
        if path is None:
            return None
        loader = importlib.machinery.ExtensionFileLoader(_LSAP_MODULE, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_LSAP_MODULE, path, loader=loader))
            loader.exec_module(module)
        except ImportError:
            return None
        sys.modules[_LSAP_MODULE] = module
    return getattr(module, "linear_sum_assignment", None)


# resolved once here, so the sweeps' pooled W2 solves never race on a load
_linear_sum_assignment = _load_lsap()


def _sq_cost(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Squared distances (n, m), bit for bit ``cdist(pa, pb, "sqeuclidean")``.

    Coordinates are summed in cdist's order, one row block at a time, so
    besides the result only one block-sized temporary is held.
    """
    (n, d), m = pa.shape, pb.shape[0]
    cost = np.empty((n, m))
    tmp = np.empty((min(n, _COST_BLOCK), m))
    for start in range(0, n, _COST_BLOCK):
        rows = pa[start:start + _COST_BLOCK]
        blk, sq = cost[start:start + _COST_BLOCK], tmp[:rows.shape[0]]
        np.subtract.outer(rows[:, 0], pb[:, 0], out=blk)
        np.square(blk, out=blk)
        for k in range(1, d):
            np.subtract.outer(rows[:, k], pb[:, k], out=sq)
            np.square(sq, out=sq)
            blk += sq
    return cost


def _w2_exact(pa: np.ndarray, pb: np.ndarray) -> float:
    if pa.shape[0] != pb.shape[0]:
        raise SizeMismatchError(
            f"exact w2 needs equal cloud sizes, got {pa.shape[0]} and {pb.shape[0]}"
        )
    if pa.shape[0] > _W2_EXACT_CAP:
        raise TooLargeError(
            f"exact w2 capped at {_W2_EXACT_CAP} particles, got {pa.shape[0]}; "
            "use method='sliced'"
        )
    solve = _linear_sum_assignment
    if solve is None:
        # no loadable extension module: the public import (scipy.optimize's
        # whole package) on first use, which also raises if scipy is missing
        from scipy.optimize import linear_sum_assignment as solve
    cost = _sq_cost(pa, pb)
    rows, cols = solve(cost)
    return float(math.sqrt(cost[rows, cols].mean()))


def _w2_1d_sq(u: np.ndarray, v: np.ndarray) -> float:
    """Squared 1D W2 between sorted samples, sizes may differ.

    Unequal sizes integrate the squared quantile gap over the merged
    quantile grid; this is exact for empirical measures.
    """
    nu, nv = u.size, v.size
    if nu == nv:
        d = u - v
        return float(np.mean(d * d))
    edges = np.union1d(np.arange(1, nu) / nu, np.arange(1, nv) / nv)
    qs = np.concatenate(([0.0], edges, [1.0]))
    widths = np.diff(qs)
    mids = 0.5 * (qs[:-1] + qs[1:])
    iu = np.minimum((mids * nu).astype(int), nu - 1)
    iv = np.minimum((mids * nv).astype(int), nv - 1)
    d = u[iu] - v[iv]
    return float(np.sum(widths * d * d))


def _w2_sliced(pa: np.ndarray, pb: np.ndarray, n_projections: int, seed: int) -> float:
    n_projections = _int_param("n_projections", n_projections, "[1, inf)")
    _, dirs = _philox_draw(seed, _PROJ_DOMAIN, n_projections, pa.shape[1], 0)
    total = 0.0
    for u in dirs:
        u /= max(float(np.linalg.norm(u)), 1e-300)
        total += _w2_1d_sq(np.sort(pa @ u), np.sort(pb @ u))
    return float(math.sqrt(total / n_projections))


def w2(
    a: Union[ParticleCloud, np.ndarray],
    b: Union[ParticleCloud, np.ndarray],
    method: str = "exact",
    n_projections: int = 64,
    seed: int = 0,
) -> float:
    """Wasserstein-2 distance between two empirical clouds.

    ``method="exact"`` solves the assignment problem (equal sizes, capped at
    4096 particles). ``method="sliced"`` averages squared 1D distances over
    random directions and never exceeds the exact value.
    """
    pa, pb = (c.points if isinstance(c, ParticleCloud)
              else _array_param(name, c, "an (n, d) cloud") for name, c in (("a", a), ("b", b)))
    if pa.shape[1] != pb.shape[1]:
        raise SizeMismatchError(
            f"clouds have different dimensions: {pa.shape[1]} vs {pb.shape[1]}"
        )
    if method == "exact":
        return _w2_exact(pa, pb)
    if method == "sliced":
        return _w2_sliced(pa, pb, n_projections, seed)
    raise InvalidParamError(f"unknown w2 method {method!r}; use 'exact' or 'sliced'")


@dataclass(frozen=True)
class FitReport:
    """Least-squares line fit summary."""

    slope: float
    intercept: float
    r_squared: float
    n: int


def linear_fit(xs, ys) -> FitReport:
    """Ordinary least squares y = slope * x + intercept.

    Constant ys fit the flat line exactly, reported as slope 0 with
    r_squared 0 (no variance to explain). Constant xs are rejected.
    """
    xa, ya = _array_param("xs", xs).ravel(), _array_param("ys", ys).ravel()
    if xa.shape != ya.shape:
        raise SizeMismatchError(f"xs and ys differ in length: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise DegenerateInputError("need at least two points to fit a line")
    if np.ptp(xa) <= 1e-13 * max(1.0, float(np.max(np.abs(xa)))):
        raise DegenerateInputError("xs are (numerically) constant; slope undefined")
    ym = float(ya.mean())
    if np.ptp(ya) <= 1e-12 * max(1.0, float(np.max(np.abs(ya)))):
        return FitReport(slope=0.0, intercept=ym, r_squared=0.0, n=xa.size)
    xm = float(xa.mean())
    dx = xa - xm
    dy = ya - ym
    slope = float(dx @ dy) / float(dx @ dx)
    intercept = ym - slope * xm
    resid = ya - (slope * xa + intercept)
    r2 = 1.0 - float(resid @ resid) / float(dy @ dy)
    return FitReport(slope=slope, intercept=intercept,
                     r_squared=min(1.0, max(0.0, r2)), n=xa.size)
