"""Setup shared by every test module."""

import warnings

# Hypothesis imports this module only when it reports a failing example, and
# the module imports libcst, whose import raises a DeprecationWarning
# (mypy_extensions.TypedDict).  Under ``-W error`` that warning would replace
# the falsifying example with a pytest INTERNALERROR, so the module is
# imported here once, with DeprecationWarning ignored for that import only.
# libcst is an optional dependency of hypothesis; without it the import fails,
# hypothesis skips the module too, and its plain report is shown.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
