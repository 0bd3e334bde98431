"""Suite-wide settings.

The property tests run under one hypothesis profile: derandomized, so that
every run tries the same examples; without a deadline, because example
timings swing widely on a shared machine; and with a bounded number of
examples, so that their share of the suite's time stays fixed.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "eegcl", derandomize=True, deadline=None, max_examples=300, database=None
    )
    settings.load_profile("eegcl")
