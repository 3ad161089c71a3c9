from hypothesis import settings

# more examples for the random differential test of classify, which runs
# 1000 without it:
# pytest tests/test_solver.py -k random_fields --hypothesis-profile=differential
settings.register_profile("differential", max_examples=5000)
