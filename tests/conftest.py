"""Suite-wide setup.

Hypothesis explains a failing example with ``hypothesis.extra._patching``,
which imports ``libcst``; libcst subclasses ``mypy_extensions.TypedDict``,
whose DeprecationWarning the ``error::DeprecationWarning`` filter would turn
into a pytest INTERNALERROR that hides the falsifying example.  Importing it
once here, with that warning ignored, leaves the module cached for the
failure report.  Without libcst there is nothing to import.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
