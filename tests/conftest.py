from hypothesis import settings

# deterministic property tests: examples derive from the test body, so runs
# are reproducible across machines and invocations
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
