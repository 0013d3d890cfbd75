"""The LAPACK and BLAS routines of ``greens``, from the OpenBLAS numpy already loaded.

numpy's wheels bundle an ILP64 OpenBLAS (``numpy.libs/libscipy_openblas64_*``
on Linux, ``numpy/.dylibs`` on macOS) that ``import numpy`` maps for its own
linear algebra.  ``OpenBLAS`` calls five of its routines through ctypes:
dgeqrt, dgemqrt, dgeqp3, dgesdd (with its workspace query) and dtrsm, under
the names and call shapes of ``scipy.linalg.lapack`` and ``.blas`` that
``greens`` uses.  The symbols are ``scipy_<name>_64_``: every argument by
reference, integers as int64, and after them gfortran's hidden length of each
character argument.  Read-only arrays are passed where they lie, with their
column stride as the leading dimension, so the n x n triangle ``qr[:n]`` of
an m x n QR factor goes to dtrsm as a view (lda = m).  Since a wrong leading
dimension would make a routine read or write past an array, every array is
checked for dtype, shape and column-major layout before the call, and an
info < 0 raises a ``ValueError`` naming the routine and the argument.

Only where numpy bundles no such library (conda, MKL or Accelerate builds)
does ``load`` return scipy's compiled modules scipy.linalg._flapack and
_fblas instead, loaded from their files without running scipy's
``__init__`` (whose array-API copy of the numpy namespace imports numpy.f2py,
numpy.testing and unittest: 0.3 s of CPU).  The choice is made once, at import.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np

# the Fortran arguments of each routine, in order; the character ones get a
# hidden length each, and a routine whose last argument is info reports one
ARGUMENTS = {
    "dgeqrt": "m n nb a lda t ldt work info",
    "dgemqrt": "side trans m n k nb v ldv t ldt c ldc work info",
    "dgeqp3": "m n a lda jpvt tau work lwork info",
    "dgesdd": "jobz m n a lda s u ldu vt ldvt work lwork iwork info",
    "dtrsm": "side uplo transa diag m n alpha a lda b ldb",
}
CHARACTERS = {"side", "trans", "uplo", "transa", "diag", "jobz"}
ITEM = np.dtype(np.float64).itemsize


def bundled_openblas() -> str | None:
    """The ILP64 OpenBLAS library that numpy's wheel bundles, or None."""
    root = os.path.dirname(np.__file__)
    for folder in (root + ".libs", os.path.join(root, ".dylibs")):
        found = sorted(glob.glob(os.path.join(folder, "libscipy_openblas64_*")))
        if found:
            return found[0]
    return None


def _matrix(routine: str, name: str, a, shape=(None, None), copy: bool = False,
            writes: bool = False):
    """``a`` checked as a 2-D float64 array in column-major layout (a fresh
    Fortran-ordered copy of it when ``copy``), and its leading dimension.

    ``shape`` gives the rows and columns it must have, None for any."""
    if copy:
        a = np.array(a, dtype=np.float64, order="F")
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2):
        raise ValueError(f"{routine}: argument {name} must be a 2-D float64 array, not "
                         f"{getattr(a, 'ndim', '?')}-D {getattr(a, 'dtype', type(a).__name__)}")
    if any(want is not None and got != want for got, want in zip(a.shape, shape)):
        raise ValueError(f"{routine}: argument {name} has shape {a.shape}, not "
                         f"{tuple('*' if w is None else w for w in shape)}")
    rows, cols = a.shape
    ld = a.strides[1] // ITEM if cols > 1 else max(1, rows)
    if (not a.flags.aligned or rows > 1 and a.strides[0] != ITEM
            or cols > 1 and (a.strides[1] % ITEM or ld < max(1, rows))):
        raise ValueError(f"{routine}: argument {name} is not in column-major layout "
                         f"(strides {a.strides})")
    if writes and not a.flags.writeable:
        raise ValueError(f"{routine}: argument {name} is read-only")
    return a, ld


class OpenBLAS:
    """dgeqrt, dgemqrt, dgeqp3, dgesdd, dgesdd_lwork and dtrsm of one ILP64
    OpenBLAS library, each with the call shape of its ``scipy.linalg.lapack``
    or ``.blas`` namesake that ``greens`` uses."""

    def __init__(self, path: str):
        library = ctypes.CDLL(path)
        self.path = path
        self._routines = {}  # name -> (symbol, argument names, hidden lengths)
        for name, arguments in ARGUMENTS.items():
            routine, arguments = getattr(library, f"scipy_{name}_64_"), arguments.split()
            lengths = [1] * len(CHARACTERS.intersection(arguments))
            routine.argtypes = ([ctypes.c_void_p] * len(arguments)
                                + [ctypes.c_size_t] * len(lengths))
            routine.restype = None
            self._routines[name] = routine, arguments, lengths
        self._build = []
        for name in ("config", "corename"):
            query = getattr(library, f"scipy_openblas_get_{name}64_")
            query.argtypes, query.restype = [], ctypes.c_char_p
            self._build.append(query)

    def build(self) -> str:
        """The library's build string and the CPU core its kernels are for."""
        config, corename = (query().decode() for query in self._build)
        return f"{config} (core {corename})"

    def _call(self, name: str, *args) -> int | None:
        """Call ``name`` with bytes as characters, arrays by their data,
        ints as int64 and floats as doubles by reference; its info, if any."""
        routine, names, lengths = self._routines[name]
        info = ctypes.c_int64() if names[-1] == "info" else None
        pointers = [arg if isinstance(arg, bytes) else arg.ctypes.data
                    if isinstance(arg, np.ndarray) else ctypes.byref(ctypes.c_double(arg))
                    if isinstance(arg, float) else ctypes.byref(ctypes.c_int64(arg))
                    for arg in args]
        if info is not None:
            pointers.append(ctypes.byref(info))
        routine(*pointers, *lengths)
        if info is None:
            return None
        if info.value < 0:
            raise ValueError(f"{name}: illegal value in argument {-info.value} "
                             f"({names[-info.value - 1]})")
        return info.value

    def dgeqrt(self, nb: int, a, overwrite_a: int = 0):
        """(qr, t, info): blocked QR of ``a`` on panels of ``nb`` columns."""
        a, lda = _matrix("dgeqrt", "a", a, copy=not overwrite_a, writes=True)
        m, n = a.shape
        if not 1 <= nb <= max(1, min(m, n)):
            raise ValueError(f"dgeqrt: argument nb = {nb} is not in 1 to max(1, min(m, n)) "
                             f"= {max(1, min(m, n))}")
        t = np.zeros((nb, min(m, n)), order="F")
        info = self._call("dgeqrt", m, n, nb, a, lda, t, nb, np.empty(max(1, nb * n)))
        return a, t, info

    def dgemqrt(self, v, t, c, side: str = "L", trans: str = "N"):
        """(Q^T c or Q c, info) for the Q of dgeqrt's ``v`` and ``t``; c is copied."""
        if side != "L" or trans not in ("N", "T"):
            raise ValueError(f"dgemqrt: side {side!r} and trans {trans!r} are not 'L' and "
                             "'N' or 'T'")
        c, ldc = _matrix("dgemqrt", "c", c, copy=True)
        m, n = c.shape
        v, ldv = _matrix("dgemqrt", "v", v, shape=(m, None))
        k = v.shape[1]
        t, ldt = _matrix("dgemqrt", "t", t, shape=(None, k))
        nb = t.shape[0]
        if not (k <= m and 1 <= nb <= max(1, k)):
            raise ValueError(f"dgemqrt: argument t of {nb} rows is not a block size for "
                             f"k = {k} reflectors of m = {m} rows")
        info = self._call("dgemqrt", side.encode(), trans.encode(), m, n, k, nb, v, ldv, t,
                          ldt, c, ldc, np.empty(max(1, nb * n)))
        return c, info

    def dgeqp3(self, a, lwork: int, overwrite_a: int = 0):
        """(qr, jpvt, tau, work, info): column-pivoted QR of ``a``, 1-based pivots."""
        a, lda = _matrix("dgeqp3", "a", a, copy=not overwrite_a, writes=True)
        m, n = a.shape
        if not lwork >= 3 * n + 1:
            raise ValueError(f"dgeqp3: argument lwork = {lwork} is below 3 n + 1 = {3 * n + 1}")
        jpvt, tau, work = np.zeros(n, dtype=np.int64), np.zeros(min(m, n)), np.zeros(lwork)
        info = self._call("dgeqp3", m, n, a, lda, jpvt, tau, work, lwork)
        return a, jpvt, tau, work, info

    def dgesdd_lwork(self, m: int, n: int, compute_uv: int, full_matrices: int):
        """(work, info): dgesdd's optimal workspace for singular values alone
        (``full_matrices`` has no effect without vectors)."""
        if compute_uv:
            raise ValueError("dgesdd_lwork: argument compute_uv must be 0 (values only)")
        work, unused = np.zeros(1), np.zeros(1)
        info = self._call("dgesdd", b"N", m, n, unused, max(1, m), unused, unused, 1, unused,
                          1, work, -1, np.zeros(1, dtype=np.int64))
        return work[0], info

    def dgesdd(self, a, compute_uv: int, full_matrices: int, lwork: int):
        """(u, s, vt, info) with the singular values s of ``a`` alone; a is copied."""
        if compute_uv:
            raise ValueError("dgesdd: argument compute_uv must be 0 (values only)")
        a, lda = _matrix("dgesdd", "a", a, copy=True)
        m, n = a.shape
        if not lwork >= 1:
            raise ValueError(f"dgesdd: argument lwork = {lwork} is below 1")
        u, s, vt = np.zeros((1, 1)), np.zeros(min(m, n)), np.zeros((1, 1))
        info = self._call("dgesdd", b"N", m, n, a, lda, s, u, 1, vt, 1, np.zeros(lwork), lwork,
                          np.zeros(max(1, 8 * min(m, n)), dtype=np.int64))
        return u, s, vt, info

    def dtrsm(self, alpha: float, a, b, trans_a: int = 0):
        """alpha R^-1 b, or alpha R^-T b with ``trans_a``, for the upper
        triangle R of the square ``a``; b is copied, a is read where it lies."""
        b, ldb = _matrix("dtrsm", "b", b, copy=True)
        m, n = b.shape
        a, lda = _matrix("dtrsm", "a", a, shape=(m, m))
        self._call("dtrsm", b"L", b"U", b"T" if trans_a else b"N", b"N", m, n, float(alpha),
                   a, lda, b, ldb)
        return b


def _scipy_extension(name: str):
    """scipy.linalg's compiled module ``name``, loaded from its file without
    running scipy/__init__.py or scipy/linalg/__init__.py.

    Once scipy.linalg is imported, or when the file does not load, this is
    the ordinary import, which returns the same module (without scipy, an
    ImportError)."""
    full, spec = f"scipy.linalg.{name}", find_spec("scipy")
    if spec is not None and "scipy.linalg" not in sys.modules and full not in sys.modules:
        path = os.path.join(spec.submodule_search_locations[0], "linalg",
                            name + EXTENSION_SUFFIXES[0])
        loader = ExtensionFileLoader(full, path)
        try:
            module = module_from_spec(spec_from_loader(full, loader))
            loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[full] = module
    return importlib.import_module(full)


def load():
    """(lapack, blas): one ``OpenBLAS`` for both on numpy's bundled library,
    else scipy's modules _flapack and _fblas; an ImportError without either."""
    path = bundled_openblas()
    if path is None:
        missing = f"numpy bundles no ILP64 OpenBLAS beside {os.path.dirname(np.__file__)}"
    else:
        try:
            handle = OpenBLAS(path)
        except (OSError, AttributeError) as exc:  # it does not load, or lacks a symbol
            missing = f"numpy's bundled OpenBLAS {path} does not serve: {exc}"
        else:
            return handle, handle
    try:
        return _scipy_extension("_flapack"), _scipy_extension("_fblas")
    except ImportError as exc:
        raise ImportError(f"no LAPACK for shapelab.greens: {missing}, and scipy's "
                          f"LAPACK modules do not load ({exc})") from exc
