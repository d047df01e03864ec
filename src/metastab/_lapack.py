"""SciPy's compiled LAPACK wrappers, without the ``scipy.linalg`` package.

The validator calls two Fortran routines, ``dstebz`` and ``dgtsv``, both in
the extension module ``scipy.linalg._flapack``; no other part of the program
loads SciPy. Importing it the usual way first runs ``scipy/__init__.py`` and
``scipy/linalg/__init__.py``, whose array-API layer loads much of NumPy's
tooling and costs more than the routines' work in a ``validate`` launch.
``flapack()`` loads the extension module from its file instead; should that
fail, it returns the public ``scipy.linalg.lapack``, which exposes the same
routines. Either way the same binary routines run.

``dstebz()`` calls the bisection through ``ctypes`` instead of its f2py
wrapper: the Fortran routine is the one the wrapper calls, found through the
wrapper's ``_cpointer``, and a ``ctypes`` call releases the GIL for its
duration where the wrapper holds it, so several bisections can run at once
on threads. NumPy has already imported ``ctypes``.
"""

import ctypes
import sys

import numpy as np

_NAME = "scipy.linalg._flapack"


def flapack():
    """The module holding SciPy's LAPACK routines: the extension module,
    loaded once per process, or ``scipy.linalg.lapack``."""
    mod = sys.modules.get(_NAME)
    if mod is not None:
        return mod
    try:
        mod = _load_extension()
    except ImportError:
        from scipy.linalg import lapack
        return lapack
    # registered, so that a later ``import scipy.linalg`` reuses it
    sys.modules[_NAME] = mod
    return mod


def check_info(info, routine):
    """Raise for a nonzero LAPACK ``info`` as SciPy's wrappers do: an
    illegal argument is a ValueError, a failed computation a LinAlgError."""
    if info < 0:
        raise ValueError(
            f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine} did not converge (LAPACK info={info})")


def _array(dtype):
    """``ctypes`` argument type of a C-contiguous NumPy array of ``dtype``,
    passed as the address of its first element (NumPy's ``ndpointer``
    without loading ``numpy.ctypeslib``)."""
    dtype = np.dtype(dtype)

    def from_param(a):
        if a.dtype != dtype or not a.flags.c_contiguous:
            raise TypeError(f"need a C-contiguous {dtype} array")
        return ctypes.c_void_p(a.ctypes.data)
    return type(f"{dtype}_array", (), {"from_param": staticmethod(from_param)})


_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
# RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT,
# WORK, IWORK, INFO; the two one-character options are passed as the f2py
# wrapper passes them, without hidden length arguments
_F8, _I4 = _array(float), _array(np.intc)
_STEBZ = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, _INT,
                          _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _F8, _F8,
                          _INT, _INT, _F8, _I4, _I4, _F8, _I4, _INT)
# f2py makes its capsules without a name
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                     ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def dstebz():
    """LAPACK ``dstebz`` of ``flapack()`` as a ``ctypes`` function, which
    releases the GIL while it runs. It takes the Fortran arguments in
    order: the two options as one-letter bytes, scalars as ``c_int`` or
    ``c_double`` (the outputs M, NSPLIT and INFO too), arrays as NumPy
    arrays of float or ``intc``."""
    return _STEBZ(_capsule_pointer(flapack().dstebz._cpointer, None))


def _load_extension():
    """``scipy.linalg._flapack`` loaded from ``<scipy>/linalg``; finding
    the ``scipy`` package imports nothing."""
    from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                     FileFinder)
    from importlib.util import find_spec, module_from_spec
    from os.path import join
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("no scipy package")
    finder = FileFinder(join(scipy.submodule_search_locations[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NAME)
    if spec is None:
        raise ImportError(f"no {_NAME} extension")
    mod = module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
