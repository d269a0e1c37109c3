"""Reference-core seconds from probe samples."""

import time

import pytest

import speed


def test_probe_time_is_removed_and_speed_scales():
    samples = [(0.05, 0.001), (0.15, 0.001), (0.95, 0.001), (2.0, 0.001)]  # last one outside
    # probe at twice the reference time: the host ran at half speed
    block = [2 * speed.REFERENCE_S] * 3
    got = speed.reference_seconds(samples, (0.0, 1.0), block)
    assert got == pytest.approx((1.0 - 0.003) / 2)


def test_probe_samples_while_active_only():
    probe = speed.SpeedProbe()
    with probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    n = len(probe.samples)
    assert n >= 2 and all(d > 0 for _, d in probe.samples)
    time.sleep(0.25)
    assert len(probe.samples) == n
