"""Test-suite settings: property tests run a fixed, bounded set of examples."""

from hypothesis import settings

# Derandomized and without an example database, so every run draws the
# same examples and a failure found once is found on every run; no
# deadline, because exact elimination times vary with machine load.
settings.register_profile("suite", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("suite")
