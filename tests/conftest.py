import contextlib
import warnings

# On a failure, hypothesis's pytest plugin imports its patch writer, whose
# libcst import raises a DeprecationWarning from mypy_extensions. With
# warnings as errors, that would end the session instead of reporting the
# failure, so the module is imported here first, with the warning ignored,
# for every property module.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
