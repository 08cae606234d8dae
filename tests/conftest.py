from hypothesis import settings

# Property tests draw the same examples on every run, and slow shared
# machines do not fail them on time.
settings.register_profile("cpinfer", derandomize=True, deadline=None)
settings.load_profile("cpinfer")
