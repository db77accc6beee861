import numpy as np
import pytest

from wavehop import _kernels


def _reference_loop(xpad, taps_re, taps_im, hop, frames):
    width = taps_re.size
    re = np.empty(frames)
    im = np.empty(frames)
    for k in range(frames):
        window = xpad[k * hop: k * hop + width]
        re[k] = window @ taps_re
        im[k] = window @ taps_im
    return re, im


@pytest.mark.parametrize("hop,width,frames", [(1, 7, 50), (3, 33, 40), (16, 129, 25)])
def test_numpy_kernel_matches_plain_loop(hop, width, frames):
    rng = np.random.default_rng(width)
    xpad = rng.standard_normal((frames - 1) * hop + width + 5)
    taps_re = rng.standard_normal(width)
    taps_im = rng.standard_normal(width)
    got = _kernels.strided_correlate(xpad, taps_re, taps_im, hop, frames)
    want = _reference_loop(xpad, taps_re, taps_im, hop, frames)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-12)
