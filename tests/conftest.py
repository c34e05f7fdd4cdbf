import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A failing property test makes hypothesis import its patch writer, whose
# libcst import raises mypy_extensions' DeprecationWarning; under the
# error::DeprecationWarning filter that aborts the whole session. Importing
# it here once, with that warning ignored, lets the failure be reported.
# Without libcst hypothesis writes no patch, and there is nothing to import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rt2():
    return np.sqrt(2.0)
