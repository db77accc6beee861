"""The strided transform's direct kernel, in numpy.

``DIRECT_TO_FFT_COST_RATIO`` feeds the per-row routing decision in the
strided transform: one M*log2(M) unit of FFT work is priced at that many
multiply-accumulates of ``strided_correlate``.  It only steers a speed
decision, never a result.  8 is a fixed estimate, not re-derived for this
kernel's matmul form; where one FFT unit costs fewer of its MACs than
that (about 5.6 at hop <= 2 on a 2-vCPU x86 host), rows near the
crossover stay direct although the dense route would be faster.
"""

import numpy as np

__all__ = ["DIRECT_TO_FFT_COST_RATIO", "strided_correlate"]


def strided_correlate(xpad, taps_re, taps_im, hop, frames):
    """Correlate ``xpad`` with the taps at translations 0, hop, 2*hop, ...

    ``xpad`` must already be offset so that frame k covers
    ``xpad[k*hop : k*hop + len(taps)]``.  Returns (real, imag) parts.

    Splitting tap index j into q*hop + p turns the strided correlation
    into one contiguous matmul, (frames+blocks-1, hop) x (hop, 2*blocks),
    plus a short diagonal reduction over q -- no windowed copies.  For
    hop <= 2 the block split saves nothing (the intermediate grows to
    ~2/hop times a plain window copy), so dense windows win there.
    """
    width = taps_re.shape[0]
    if hop <= 2:
        stride = xpad.strides[0]
        windows = np.lib.stride_tricks.as_strided(
            xpad, shape=(frames, width), strides=(stride * hop, stride), writeable=False
        )
        return windows @ taps_re, windows @ taps_im
    blocks = -(-width // hop)
    needed = (frames + blocks - 1) * hop
    if xpad.size < needed:
        xpad = np.concatenate([xpad, np.zeros(needed - xpad.size)])
    x2d = xpad[:needed].reshape(frames + blocks - 1, hop)
    taps2d = np.zeros((2, blocks * hop))
    taps2d[0, :width] = taps_re
    taps2d[1, :width] = taps_im
    # products[i, c, q] = x2d[i] . taps2d[c, q*hop:(q+1)*hop]
    products = np.tensordot(x2d, taps2d.reshape(2, blocks, hop), axes=([1], [2]))
    out_re = np.zeros(frames)
    out_im = np.zeros(frames)
    for q in range(blocks):
        out_re += products[q: q + frames, 0, q]
        out_im += products[q: q + frames, 1, q]
    return out_re, out_im


DIRECT_TO_FFT_COST_RATIO = 8.0
