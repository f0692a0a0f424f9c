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
  fill its 5-byte lookahead.  The decoder reads bytes past the end of the
  payload as 0.

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
The zigzag-mapped index is coded with a 9-level tree.  The reconstruction
``pred + rhat`` always lies in 0..255 without clamping: the MED prediction
lies between two reconstructed neighbours, and the floor quantizer moves the
reconstruction from the prediction towards the source, never past it.  The
decoder still clamps, so that a hostile payload cannot write a value outside
a byte.

One function, ``_code``, walks the image for both directions and both
modes, in plain Python shaped for the interpreter.  It keeps the previous and
current row of the reconstruction as lists of ints, iterates a row by
``zip`` over the up row, the up-left row and the per-sample context tables,
and computes the MED prediction and activity once per sample; a sample's
table maps the activity straight to the context's probability list.  Then
it either encodes (one table maps the residual to its dequantized value and
the coded value's (node, bit) path, which is range-coded at once) or decodes
(the context tree is walked from the code register).  Each probability
update comes from a table and the output goes to a ``bytearray``.

Most samples of a tactile image at rest code the value 0, and the walk
codes those in saturated contexts without the per-bit loop.  The shortcut
is exact; the bitstream, the reconstruction and the per-bit path do not
change, so ``MIN_SAMPLE_BITS`` and ``max_sample_count`` still hold:

* ``SAT = 32737`` is the fixed point of coding 0s: ``_AFTER0[SAT] == SAT``,
  and no update takes a probability in ``0..SAT`` above ``SAT``.  A 0 bit
  at ``SAT`` leaves ``low`` and ``code`` alone and sets the range to
  ``(range >> 15) * SAT``, a function of the range alone.  So when every
  node on the value 0's path (1, 2, 4, ..., ``size >> 1``) holds ``SAT``,
  coding a 0 is that step chained once per level, with no probability
  written, provided no renormalization falls inside the sample.  The
  chained values fall at every step (``SAT < 32768``), so a final value
  ``r >= RC_TOP`` means every intermediate one was too: none fell inside.
* The chained range is one lookup, ``_ZERO_CHAIN[mode][range >> 15]``.
  The first step reads the range only through ``range >> 15`` and every
  later step reads only the previous result, so the table is exact.  At the
  shortcut ``RC_TOP <= range <= 2**32 - 1``, so the index lies in
  ``[2**9, 2**17)``.  Each mode's table has ``2**17`` entries, all below
  ``2**32``, in a 4-byte ``array``: 512 KiB, 1 MiB for both, built with
  numpy ``uint32`` arithmetic at import in a few milliseconds.
* The decoder reads a 0 at a node when ``code`` is below the split point.
  Each split point of the chain is at least the final ``r`` and ``code``
  does not change on a 0, so ``code < r`` means a 0 at every node, whatever
  the payload.  Otherwise (``code >= r`` or ``r < RC_TOP``) the per-bit walk
  runs from the untouched state, and handles a renormalization inside the
  sample as always.
* Slot 0 of a context's probability list, which no node uses, holds 0 when
  every zero-path node is at ``SAT`` and otherwise a zero-path node to
  watch.  A nonzero value's first 1 bit falls on a zero-path node and pulls
  it below ``SAT``, so the walk then stores node 1 there.  After a 0 coded by
  the walk, the zero-path nodes are rescanned only once the watched node
  is at ``SAT``: the slot becomes the first node still below ``SAT``, or 0
  when none is, which is exact because no probability exceeds ``SAT``.  A
  slot holding 0 is never rescanned (the slot's value 0 is not ``SAT``),
  and a shortcut sample leaves every zero-path node at ``SAT``.
"""

import math
from array import array

import numpy as np

from .layout import AXIS_COUNT, REST_CODES

HAVE_NUMBA = False  # the kernels are plain Python; kept for callers that report the backend

PROB_BITS = 15
PROB_ONE = 1 << PROB_BITS
PROB_INIT = PROB_ONE >> 1
ADAPT_SHIFT = 5
RC_TOP = 1 << 24
MASK32 = 0xFFFFFFFF

MODE_LOSSLESS = 0
MODE_LOSSY = 1

N_BUCKETS = 3

# Probabilities never leave [31, SAT]; coding a 0 at SAT leaves it at SAT.
SAT = PROB_ONE - (1 << ADAPT_SHIFT) + 1
# A sample codes at least 8 tree bits, each costing at least log2(32768/SAT).
MIN_SAMPLE_BITS = 8 * math.log2(PROB_ONE / SAT)


def max_sample_count(payload_len: int) -> int:
    """Most samples a payload of ``payload_len`` bytes can have coded: twice
    the count that the minimum cost per sample (~0.0109 bits) allows."""
    return int(2 * 8 * payload_len / MIN_SAMPLE_BITS)


def _tree_paths(levels):
    """Each value's walk down a ``levels``-deep tree: (node, bit) pairs,
    most significant bit first."""
    steps = [(node >> 1, node & 1) for node in range(1 << (levels + 1))]
    return [tuple(steps[((1 << levels) | value) >> k] for k in range(levels - 1, -1, -1))
            for value in range(1 << levels)]


_LEVELS = {MODE_LOSSLESS: 8, MODE_LOSSY: 9}
_PATHS = {mode: _tree_paths(levels) for mode, levels in _LEVELS.items()}
# Activity |a-cc| + |b-cc| <= 510 -> bucket 0, 1..4, >=5.
_BUCKET = [0] + [1] * 4 + [2] * 506
# Probability after coding a 0 / a 1 from probability p (the two tables
# share one int object per probability).
_PROBS = list(range(PROB_ONE + 1))
_AFTER0 = [_PROBS[p + ((PROB_ONE - p) >> ADAPT_SHIFT)] for p in _PROBS]
_AFTER1 = [_PROBS[p - (p >> ADAPT_SHIFT)] for p in _PROBS]
del _PROBS


def _zero_chain(levels):
    """The range after coding a 0 at ``SAT`` once per level, indexed by
    ``range >> PROB_BITS``: ``levels`` chained ``(r >> 15) * SAT`` steps.
    Every value fits 32 bits (``(2**17 - 1) * SAT < 2**32``)."""
    r = np.arange(1 << (32 - PROB_BITS), dtype=np.uint32) * np.uint32(SAT)
    for _ in range(levels - 1):
        r = (r >> PROB_BITS) * np.uint32(SAT)
    return array("I", r.tobytes())


_ZERO_CHAIN = {mode: _zero_chain(levels) for mode, levels in _LEVELS.items()}


def _shift_low(low, cache, cache_size, out):
    """Shift the top byte out of ``low``, emitting the cached byte and any
    pending 0xFF run once a carry can no longer reach them; returns the new
    (low, cache, cache_size).  It runs once per output byte."""
    if low < 0xFF000000 or low > MASK32:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        out += (b"\x00" if carry else b"\xff") * (cache_size - 1)
        return (low & 0xFFFFFF) << 8, (low >> 24) & 0xFF, 1
    return (low & 0xFFFFFF) << 8, cache, cache_size + 1


def _code(mode, qp, shape, pixels=None, payload=None):
    """The one coding walk.  Given ``pixels`` it encodes them and returns
    (payload, reconstruction); given ``payload`` it decodes it and returns
    the reconstruction.  Both directions predict from the reconstruction
    built so far, so the decoder sees what the encoder saw."""
    height, width, channels = shape
    rowlen = width * channels
    size = 1 << _LEVELS[mode]
    lossless = mode == MODE_LOSSLESS
    # one probability list per (channel, bucket) context; its unused slot 0
    # holds 0 once every zero-path node is at SAT, else a zero-path node
    contexts = [[1] + [PROB_INIT] * (size - 1) for _ in range(AXIS_COUNT * N_BUCKETS)]
    # each sample's context probability list by activity, through its bucket
    sample_contexts = [[contexts[c * N_BUCKETS + bucket] for bucket in _BUCKET]
                       for c in range(channels)] * width
    after0, after1 = _AFTER0, _AFTER1
    chain = _ZERO_CHAIN[mode]
    top = RC_TOP
    sat = SAT
    rng = MASK32
    # the value 0's path; the decoder keeps it as ``path`` and the encoder
    # keeps ``code`` at 0, so one shortcut test serves both directions
    zero = path = _PATHS[mode][0]
    zero_nodes = [node for node, _ in zero]  # 1, 2, 4, ..., size >> 1
    encoding = payload is None
    if encoding:
        code = 0
        paths = _PATHS[mode]
        # residual r (index r, negative r wraps) -> (dequantized residual,
        # tree path of the coded value: r mod 256, or the zigzag index)
        quant = [None] * 511
        for r in range(-255, 256):
            if lossless:
                quant[r] = (r, paths[r & 0xFF])
            else:
                q = r // qp if r >= 0 else -((-r) // qp)
                quant[r] = (q * qp, paths[2 * q if q >= 0 else -2 * q - 1])
        out = bytearray()
        low = 0
        cache = 0
        cache_size = 1
    else:
        # zigzag index -> dequantized residual
        dequant = [(v // 2 if v % 2 == 0 else -(v + 1) // 2) * qp for v in range(size)]
        n = len(payload)
        code = 0
        pos = 0
        for _ in range(5):  # first byte is the encoder's initial zero cache
            code = ((code << 8) | (payload[pos] if pos < n else 0)) & 0xFFFFFFFFFF
            pos += 1
        code &= MASK32

    recon = bytearray(height * rowlen)
    # row 0 has no up row; its samples predict from the left alone
    prev, first = [0] * (rowlen + channels), True
    for t in range(height):
        if encoding:
            xs = pixels[t].ravel().tolist()
        # cur[j] is the left neighbour of sample j; its first entries stand
        # in for column 0, which predicts from above (or the rest code).
        cur = [0] * (rowlen + channels)
        if first:
            cur[:channels] = REST_CODES
        else:
            # column 0 predicts from above: its left and up-left read the up sample
            cur[:channels] = prev[:channels] = prev[channels:2 * channels]
        for j, b, cc, by_act in zip(range(rowlen), prev[channels:], prev, sample_contexts):
            a = cur[j]
            if first:
                b = cc = a
            if cc >= a:
                if cc >= b:
                    pred = a if a < b else b
                    act = cc + cc - a - b
                else:
                    pred = a + b - cc
                    act = b - a
            elif cc <= b:
                pred = a if a > b else b
                act = a + b - cc - cc
            else:
                pred = a + b - cc
                act = a - b
            probs = by_act[act]
            if encoding:
                dq, path = quant[xs[j] - pred]
            if path is zero and not probs[0]:
                # a 0 at every saturated node: the walk's range steps, chained,
                # read from the mode's table (15 is PROB_BITS; probabilities,
                # low and code stay as they are)
                r = chain[rng >> 15]
                if code < r >= top:  # no renormalization; a decoder reads only 0 bits
                    rng = r
                    cur[j + channels] = pred
                    continue
            if encoding:
                for node, bit in path:
                    p = probs[node]
                    bound = (rng >> PROB_BITS) * p
                    if bit:
                        low += bound
                        rng -= bound
                        probs[node] = after1[p]
                    else:
                        rng = bound
                        probs[node] = after0[p]
                    while rng < top:
                        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
                        rng <<= 8
                cur[j + channels] = pred + dq
                coded_zero = path is zero
            else:
                node = 1
                while node < size:
                    p = probs[node]
                    bound = (rng >> PROB_BITS) * p
                    if code < bound:
                        rng = bound
                        probs[node] = after0[p]
                        node += node
                    else:
                        code -= bound
                        rng -= bound
                        probs[node] = after1[p]
                        node += node + 1
                    while rng < top:
                        code = ((code << 8) | (payload[pos] if pos < n else 0)) & MASK32
                        rng <<= 8
                        pos += 1
                if lossless:
                    cur[j + channels] = (pred + node - size) & 0xFF
                else:
                    y = pred + dequant[node - size]
                    cur[j + channels] = 255 if y > 255 else (0 if y < 0 else y)
                coded_zero = node == size
            # a value's first 1 bit pulls a zero-path node below SAT; after a 0,
            # rescan once the watched node is at SAT (slot 0 holds 0 or a node,
            # never SAT, so a saturated context is not rescanned)
            if not coded_zero:
                probs[0] = 1
            elif probs[probs[0]] == sat:
                probs[0] = next((z for z in zero_nodes if probs[z] != sat), 0)
        recon[t * rowlen:(t + 1) * rowlen] = cur[channels:]
        prev, first = cur, False
    recon = np.frombuffer(recon, dtype=np.uint8).reshape(shape)
    if not encoding:
        return recon
    # flush: five shifts push the remaining 32 bits of low (plus cache) out
    for _ in range(5):
        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    return bytes(out), recon


def encode_image(pixels: np.ndarray, mode: int, qp: int) -> tuple[bytes, np.ndarray]:
    """Range-code one image; returns (payload, reconstruction)."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    return _code(mode, qp, pixels.shape, pixels=pixels)


def decode_image(payload: bytes, height: int, width: int, channels: int,
                 mode: int, qp: int) -> np.ndarray:
    """Decode a payload of ``height`` x ``width`` x ``channels`` samples."""
    return _code(mode, qp, (height, width, channels), payload=payload)
