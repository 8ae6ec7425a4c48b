"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests
derandomized, so a failure repeats on every run, and prints the blob that
replays a failing example with ``@reproduce_failure``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
