"""Suite-wide settings: every property test runs under one hypothesis
profile, derandomized (the same examples on every run), with no per-example
deadline (timings drift on shared machines) and no example database."""

from hypothesis import settings

settings.register_profile("gsaformer", derandomize=True, deadline=None, database=None)
settings.load_profile("gsaformer")
