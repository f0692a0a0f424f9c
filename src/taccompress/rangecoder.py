"""Prediction + adaptive range-coding kernels for the built-in TLC1 codec.

The entropy coder is a carry-aware binary range coder (LZMA-style):

* 32-bit range, renormalized one byte at a time when it drops below 2**24;
  the encoder buffers one ``cache`` byte plus a run of 0xFF bytes so that a
  carry out of the 32-bit ``low`` register can still propagate.  The first
  emitted byte is always 0 and the decoder skips it.
* Probabilities are 15-bit (scale 32768), initialized to 16384, adapted
  after every bit by ``p += (32768 - p) >> 5`` on a 0 and ``p -= p >> 5`` on
  a 1.  The deep scale keeps the fully-adapted cost of an all-constant
  image near 0.011 bits per sample.  The split point is
  ``bound = (range >> 15) * p``; bit 0 takes the lower
  part.  The flush performs five shift operations so the decoder can always
  fill its 5-byte lookahead.

Residual values are coded most-significant-bit first through an adaptive
context tree (one probability per reached tree node), with a separate tree
per (channel, activity bucket) pair.  Activity is |left-upleft| +
|up-upleft| on the causal reconstruction, bucketed as 0, 1..4, >=5.

Samples are predicted by the median-edge-detector over (left, up, up-left);
row 0 predicts from the left neighbor, column 0 from above, and the very
first sample of a channel from its rest code (128 for R/G, 0 for B).

Lossless mode codes the prediction residual mod 256 (8-level tree).  Lossy
mode runs a DPCM loop over reconstructed neighbors: the residual passes a
dead-zone uniform quantizer with step ``qp`` (zero bin width 2*qp) that
reconstructs at the bin floor (``rhat = q*qp``): floor reconstruction
never overshoots the true residual, which keeps both rate and distortion
monotone in the step size on DPCM loops over noisy near-flat signals.
The zigzag-mapped index is coded with a 9-level tree.  When the dequantized residual would push the reconstruction
past 0 or 255 the encoder re-canonicalizes the index to the smallest
magnitude that still clamps to the same boundary, which makes re-encoding a
decoded image reproduce it exactly.

Everything here must stay bit-exact and allocation-free in the hot loop.
The encode and decode kernels share ``_predict`` (the MED predictor and the
activity bucket), and the encoder's renormalization and flush share
``_shift_low`` (byte output through the carry cache).  Kernels and helpers
are compiled with numba when available and run as plain Python otherwise
(identical arithmetic, so identical bitstreams).
"""

import math

import numpy as np

try:
    from numba import njit as _njit

    def _jit(fn):
        return _njit(cache=True, nogil=True)(fn)

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    def _jit(fn):
        return fn

    HAVE_NUMBA = False

PROB_BITS = 15
PROB_ONE = 1 << PROB_BITS
PROB_INIT = PROB_ONE >> 1
ADAPT_SHIFT = 5
RC_TOP = 1 << 24
MASK32 = 0xFFFFFFFF

MODE_LOSSLESS = 0
MODE_LOSSY = 1

N_BUCKETS = 3
TREE8 = 256   # nodes 1..255 used
TREE9 = 512   # nodes 1..511 used

# Probabilities never leave [31, 32737], so one coded bit costs at most
# log2(32768/31) ~= 10.05 bits and 12x the raw size can never overflow.
PAYLOAD_SLACK = 64
# ... and at least log2(32768/32737); a sample codes at least 8 tree bits.
MIN_SAMPLE_BITS = 8 * math.log2(PROB_ONE / (PROB_ONE - (1 << ADAPT_SHIFT) + 1))


def payload_capacity(sample_count: int) -> int:
    return 12 * sample_count + PAYLOAD_SLACK


def max_sample_count(payload_len: int) -> int:
    """Most samples a payload of ``payload_len`` bytes can have coded: twice
    the count that the minimum cost per sample (~0.0109 bits) allows."""
    return int(2 * 8 * payload_len / MIN_SAMPLE_BITS)


@_jit
def _predict(recon, t, u, c):
    """MED prediction and activity bucket of sample (t, u, c) from its causal
    neighbours in the reconstruction."""
    if t == 0 and u == 0:
        return (128 if c < 2 else 0), 0
    if t == 0:
        return int(recon[t, u - 1, c]), 0
    if u == 0:
        return int(recon[t - 1, u, c]), 0
    a = int(recon[t, u - 1, c])
    b = int(recon[t - 1, u, c])
    cc = int(recon[t - 1, u - 1, c])
    if cc >= a and cc >= b:
        pred = a if a < b else b
    elif cc <= a and cc <= b:
        pred = a if a > b else b
    else:
        pred = a + b - cc
    act = abs(a - cc) + abs(b - cc)
    if act == 0:
        return pred, 0
    if act < 5:
        return pred, 1
    return pred, 2


@_jit
def _shift_low(low, cache, cache_size, out, pos):
    """Shift the top byte out of ``low``, emitting the cached byte and any
    pending 0xFF run once a carry can no longer reach them; returns the new
    (low, cache, cache_size, pos)."""
    if low < 0xFF000000 or low > MASK32:
        carry = low >> 32
        out[pos] = (cache + carry) & 0xFF
        pos += 1
        for _ in range(cache_size - 1):
            out[pos] = (0xFF + carry) & 0xFF
            pos += 1
        cache_size = 0
        cache = (low >> 24) & 0xFF
    return (low << 8) & MASK32, cache, cache_size + 1, pos


def _encode_image(pixels, mode, qp, probs, out):
    height, width, channels = pixels.shape
    recon = np.empty_like(pixels)

    low = 0
    rng = MASK32
    cache = 0
    cache_size = 1
    pos = 0

    tree = TREE8 if mode == MODE_LOSSLESS else TREE9
    top_bit = 7 if mode == MODE_LOSSLESS else 8

    for t in range(height):
        for u in range(width):
            for c in range(channels):
                pred, bucket = _predict(recon, t, u, c)
                x = int(pixels[t, u, c])
                if mode == MODE_LOSSLESS:
                    value = (x - pred) & 0xFF
                    recon[t, u, c] = x
                else:
                    r = x - pred
                    if r >= 0:
                        q = r // qp
                    else:
                        q = -((-r) // qp)
                    y = pred + q * qp
                    # past a boundary, the smallest index that still clamps to it
                    if y > 255:
                        q = max(1, (255 - pred + qp - 1) // qp)
                        y = 255
                    elif y < 0:
                        q = -max(1, (pred + qp - 1) // qp)
                        y = 0
                    recon[t, u, c] = y
                    value = 2 * q if q >= 0 else -2 * q - 1

                base = (c * N_BUCKETS + bucket) * tree
                node = 1
                for k in range(top_bit, -1, -1):
                    bit = (value >> k) & 1
                    p = probs[base + node]
                    bound = (rng >> PROB_BITS) * p
                    if bit == 0:
                        rng = bound
                        probs[base + node] = p + ((PROB_ONE - p) >> ADAPT_SHIFT)
                    else:
                        low += bound
                        rng -= bound
                        probs[base + node] = p - (p >> ADAPT_SHIFT)
                    while rng < RC_TOP:
                        low, cache, cache_size, pos = _shift_low(
                            low, cache, cache_size, out, pos)
                        rng = (rng << 8) & MASK32
                    node = (node << 1) | bit

    # flush: five shifts push the remaining 32 bits of low (plus cache) out
    for _ in range(5):
        low, cache, cache_size, pos = _shift_low(low, cache, cache_size, out, pos)
    return pos, recon


def _decode_image(payload, height, width, channels, mode, qp, probs):
    recon = np.empty((height, width, channels), dtype=np.uint8)
    n = payload.shape[0]

    rng = MASK32
    code = 0
    pos = 0
    for _ in range(5):  # first byte is the encoder's initial zero cache
        byte = int(payload[pos]) if pos < n else 0
        code = ((code << 8) | byte) & 0xFFFFFFFFFF
        pos += 1
    code &= MASK32

    tree = TREE8 if mode == MODE_LOSSLESS else TREE9
    top_bit = 7 if mode == MODE_LOSSLESS else 8

    for t in range(height):
        for u in range(width):
            for c in range(channels):
                pred, bucket = _predict(recon, t, u, c)
                base = (c * N_BUCKETS + bucket) * tree
                node = 1
                for _ in range(top_bit + 1):
                    p = probs[base + node]
                    bound = (rng >> PROB_BITS) * p
                    if code < bound:
                        bit = 0
                        rng = bound
                        probs[base + node] = p + ((PROB_ONE - p) >> ADAPT_SHIFT)
                    else:
                        bit = 1
                        code -= bound
                        rng -= bound
                        probs[base + node] = p - (p >> ADAPT_SHIFT)
                    while rng < RC_TOP:
                        byte = int(payload[pos]) if pos < n else 0
                        code = ((code << 8) | byte) & MASK32
                        rng = (rng << 8) & MASK32
                        pos += 1
                    node = (node << 1) | bit
                value = node - (1 << (top_bit + 1))

                if mode == MODE_LOSSLESS:
                    recon[t, u, c] = (pred + value) & 0xFF
                else:
                    q = value // 2 if value % 2 == 0 else -(value + 1) // 2
                    y = pred + q * qp
                    if y > 255:
                        y = 255
                    elif y < 0:
                        y = 0
                    recon[t, u, c] = y
    return recon


encode_image_kernel = _jit(_encode_image)
decode_image_kernel = _jit(_decode_image)


def fresh_probs(mode: int) -> np.ndarray:
    tree = TREE8 if mode == MODE_LOSSLESS else TREE9
    return np.full(3 * N_BUCKETS * tree, PROB_INIT, dtype=np.int64)


def encode_image(pixels: np.ndarray, mode: int, qp: int) -> tuple[bytes, np.ndarray]:
    """Range-code one image; returns (payload, reconstruction)."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    out = np.empty(payload_capacity(pixels.size), dtype=np.uint8)
    nbytes, recon = encode_image_kernel(pixels, mode, qp, fresh_probs(mode), out)
    return out[:nbytes].tobytes(), recon


def decode_image(payload: bytes, height: int, width: int, channels: int,
                 mode: int, qp: int) -> np.ndarray:
    buf = np.frombuffer(payload, dtype=np.uint8)
    return decode_image_kernel(buf, height, width, channels, mode, qp,
                               fresh_probs(mode))
