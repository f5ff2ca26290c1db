"""P² marker updates are frozen: :class:`P2Quantile` must match the
textbook formulation below bit for bit.

``ReferenceP2`` is the estimator as it was first written (per-marker
``_parabolic``/``_linear`` helpers, loops over every marker).  The
production class restructures the same arithmetic for speed; heights,
positions, desired positions and the estimate must agree exactly after
every observation, including ties, constant streams, signed zeros,
infinities, NaN and streams shorter than five samples.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import DEFAULT_QUANTILES, P2Quantile, StreamingPercentiles

pytestmark = pytest.mark.obs


class ReferenceP2:
    """The original P² implementation, kept verbatim as the oracle."""

    def __init__(self, q):
        self.q = q
        self.count = 0
        self._initial = []
        self._heights = []
        self._positions = []
        self._desired = []
        self._dn = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value):
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            if self.count == 5:
                self._heights = sorted(self._initial)
                self._positions = [0, 1, 2, 3, 4]
                q = self.q
                self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
            return

        h, n, ns = self._heights, self._positions, self._desired
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(3, 0, -1):
                if value >= h[i]:
                    cell = i
                    break
        for i in range(cell + 1, 5):
            n[i] += 1
        for i in range(5):
            ns[i] += self._dn[i]
        for i in (1, 2, 3):
            drift = ns[i] - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1) or (
                drift <= -1.0 and n[i - 1] - n[i] < -1
            ):
                step = 1 if drift > 0 else -1
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i, step):
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i, step):
        h, n = self._heights, self._positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])

    @property
    def value(self):
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            ordered = sorted(self._initial)
            rank = max(0, min(len(ordered) - 1, math.ceil(self.q * len(ordered)) - 1))
            return ordered[rank]
        return self._heights[2]


def _bits(values):
    """Exact float identity: hex keeps signed zeros and NaN apart."""
    return [float(value).hex() for value in values]


def _state(estimator):
    return (
        estimator.count,
        _bits(estimator._heights),
        list(estimator._positions),
        [type(position) for position in estimator._positions],
        _bits(estimator._desired),
        float(estimator.value).hex(),
    )


def assert_lockstep(q, values):
    estimator, reference = P2Quantile(q), ReferenceP2(q)
    for value in values:
        estimator.observe(value)
        reference.observe(value)
        assert _state(estimator) == _state(reference)


quantiles = st.one_of(
    st.sampled_from(DEFAULT_QUANTILES),
    st.floats(min_value=0.001, max_value=0.999),
)
#: Tie-heavy draws (a handful of repeated values) mixed with arbitrary ones.
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 2.5, 7.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e6, max_value=1e6),
)


@given(q=quantiles, stream=st.lists(values, max_size=80))
@settings(max_examples=300, deadline=None)
def test_matches_reference_after_every_observation(q, stream):
    assert_lockstep(q, stream)


@given(
    q=quantiles,
    value=st.floats(allow_nan=False, allow_infinity=False),
    length=st.integers(min_value=0, max_value=120),
)
@settings(max_examples=100, deadline=None)
def test_constant_streams_match(q, value, length):
    assert_lockstep(q, [value] * length)


@pytest.mark.parametrize("length", range(6))
def test_fewer_than_five_samples_match(length):
    assert_lockstep(0.5, [3.0, 1.0, 2.0, 5.0, 4.0][:length])
    assert_lockstep(0.99, [1.0] * length)


def test_long_tie_heavy_stream_matches():
    stream = [float((i * 7919) % 13 // 4) for i in range(5_000)]
    for q in DEFAULT_QUANTILES:
        assert_lockstep(q, stream)


@given(stream=st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=60))
@settings(max_examples=50, deadline=None)
def test_streaming_percentiles_match_reference(stream):
    bundle = StreamingPercentiles()
    references = [ReferenceP2(q) for q in DEFAULT_QUANTILES]
    for value in stream:
        bundle.observe(value)
        for reference in references:
            reference.observe(value)
    assert _bits(bundle.value(r.q) for r in references) == _bits(
        r.value for r in references
    )
