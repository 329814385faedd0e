import contextlib
import shutil
import tempfile
import warnings

from hypothesis.configuration import set_hypothesis_home_dir

# On a failure, hypothesis's pytest plugin imports its patch writer, whose
# libcst import raises a DeprecationWarning from mypy_extensions. With
# warnings as errors, that would end the session instead of reporting the
# failure, so the module is imported here first, with the warning ignored,
# for every property module.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def pytest_configure(config):
    """Keep hypothesis's storage in a directory of this session's own,
    removed when the session ends. ``database=None`` keeps no examples,
    but the plugin still caches the test modules' constants there while
    it collects, and writes a patch for each failing property after the
    last test; by default both go to ``.hypothesis/`` in the working
    directory."""
    home = tempfile.mkdtemp(prefix="evodiags-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
