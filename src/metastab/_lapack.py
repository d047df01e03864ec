"""SciPy's compiled LAPACK wrappers, without the ``scipy.linalg`` package.

The validator calls two Fortran routines, ``dstebz`` and ``dgtsv``, both in
the extension module ``scipy.linalg._flapack``; no other part of the program
loads SciPy. Importing it the usual way first runs ``scipy/__init__.py`` and
``scipy/linalg/__init__.py``, whose array-API layer loads much of NumPy's
tooling and costs more than the routines' work in a ``validate`` launch.
``flapack()`` loads the extension module from its file instead; should that
fail, it returns the public ``scipy.linalg.lapack``, which exposes the same
routines. Either way the same f2py wrappers run, with the arguments SciPy's
public functions pass them.
"""

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
