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


def _near_sphere(comps, drift):
    scale = math.sqrt(1.0 + drift) / math.hypot(*comps)
    return tuple(c * scale for c in comps)


_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
    st.floats(min_value=-1.0, max_value=1.0),
)
# points of R^4 whose norm is drawn near 1, densest at the 1e-13 snap edge and
# the 1e-9 admission edge; components keep signed zeros and subnormals
NEAR_SPHERE = st.builds(
    _near_sphere,
    st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT).filter(lambda c: math.hypot(*c) > 1e-150),
    st.one_of(
        st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9]),
        st.floats(min_value=-1.2e-13, max_value=1.2e-13),
        st.floats(min_value=-2e-9, max_value=2e-9),
    ),
)
