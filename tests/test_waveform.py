import numpy as np
import pytest

from afcmem.waveform import Waveform, gaussian_pulse


def test_gaussian_pulse_shape():
    wf = gaussian_pulse(700e-9, 0.0, 512e6)
    mags = np.abs(wf.samples)
    assert mags.max() == pytest.approx(1.0, abs=1e-3)
    t = wf.times()
    above = t[mags >= 0.5]
    assert above[-1] - above[0] == pytest.approx(700e-9, rel=0.02)


def test_peak_time_subsample():
    wf = gaussian_pulse(700e-9, 1.234e-6, 16e6)
    assert wf.peak_time() == pytest.approx(1.234e-6, abs=5e-9)


def test_csv_export(tmp_path):
    wf = Waveform(1e6, 0.0, np.array([1 + 2j, 3 - 4j, complex(-0.0, -1e-310)]))
    path = tmp_path / "wf.csv"
    wf.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,re,im"
    assert len(lines) == 4
    t0, re0, im0 = (float(x) for x in lines[1].split(","))
    assert (t0, re0, im0) == (0.0, 1.0, 2.0)
    # each value is its shortest round-trip repr: sign of zero, subnormals
    assert lines[2:] == ["1e-06,3.0,-4.0", "2e-06,-0.0,-1e-310"]


def test_bad_sample_rate():
    with pytest.raises(ValueError):
        Waveform(0.0, 0.0, np.zeros(4))


def test_pulse_with_no_sample_rejected():
    # 8 FWHM of 1 ns hold no sample at 16 MHz
    with pytest.raises(ValueError, match="fwhm_s 1e-09 .* sample_rate_hz"):
        gaussian_pulse(1e-9, 0.0, 16e6)
    assert gaussian_pulse(1e-9, 0.0, 2e9).n_samples == 16
