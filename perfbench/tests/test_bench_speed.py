"""The sampler scales each stretch of a run by the speed sampled around it."""

import pytest

import speed


def _sampler(marks):
    s = speed.Sampler()
    s.marks = marks
    return s


def test_steady_speed_scales_by_one_factor():
    r = 2 * speed.REFERENCE_S
    ms = 1_000_000
    s = _sampler([(0, 5 * ms, r), (100 * ms, 105 * ms, r), (300 * ms, 301 * ms, r)])
    raw, scaled = s.result()
    assert raw == pytest.approx(0.095 + 0.195)
    assert scaled == pytest.approx(raw / 2)
    assert s.probe_s() == pytest.approx(0.005)


def test_each_stretch_takes_the_mean_of_its_two_samples():
    ref = speed.REFERENCE_S
    s = _sampler([(0, 0, ref), (10**9, 10**9, 3 * ref), (2 * 10**9, 2 * 10**9, 3 * ref)])
    raw, scaled = s.result()
    assert raw == pytest.approx(2.0)
    assert scaled == pytest.approx(1 / 2 + 1 / 3)


def test_sampling_a_real_stretch():
    s = speed.Sampler()
    s.start()
    sum(i * i for i in range(200_000))
    s.stop()
    raw, scaled = s.result()
    assert len(s.marks) >= 2
    assert raw > 0 and scaled > 0
