from hypothesis import settings

# `--hypothesis-profile thorough` searches each property far longer than
# the default 100 examples: rare geometry, such as a window end that
# rounds onto a jump, shows only over thousands of draws
settings.register_profile("thorough", max_examples=5000, deadline=None)
