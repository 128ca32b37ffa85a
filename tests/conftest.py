"""Shared Hypothesis settings for the whole suite.

Per-example timing says little on a loaded shared host, so no test has a
deadline; a failing example prints the blob that reproduces it.
"""

from hypothesis import settings

settings.register_profile("poncelet", deadline=None, print_blob=True)
settings.load_profile("poncelet")
