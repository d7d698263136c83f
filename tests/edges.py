"""Hypothesis strategies for floats at the edges of the package's inputs."""

import math

from hypothesis import strategies as st

# non-finite values, signed zeros, subnormals and magnitudes near 1e154,
# whose squares overflow
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e154, -1.5e154]),
    st.floats(),
    st.floats(min_value=1e153, max_value=1e155),
    st.floats(min_value=-1.0, max_value=1.0),
)
EDGE_COMPLEX = st.builds(complex, EDGE_FLOATS, EDGE_FLOATS)
