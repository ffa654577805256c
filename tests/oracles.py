"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in a different style from the
package code: per-output-voxel window sums instead of shift-accumulate
convolution, dense pairwise distance matrices instead of KD-trees, and
plain central differences instead of the packaged gradient checker.
Agreement between the two routes is the point; these helpers must never
import from the modules they are used to check beyond the data types.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage


def naive_dog(spec):
    """Unbalanced DoG of a kernel spec, one offset at a time.

    Restates the closed form of the kernels module docstring: surround
    radius k/2, center radius gamma * k/2, the sigma that puts the sign
    change there, and gamma^-d exp(-rho^2 / (2 gamma^2 sigma^2)) -
    exp(-rho^2 / (2 sigma^2)) at every integer offset, with values
    within 1e-12 * (gamma^-d - 1) of zero snapped to 0.0.
    """
    g, d, m = spec.gamma, spec.dims, spec.k // 2
    r_center = g * (spec.k / 2.0)
    sigma = (r_center / g) * math.sqrt((1.0 - g * g) / (-6.0 * math.log(g)))
    amp = g ** -d
    out = np.empty((spec.k,) * d)
    for idx in np.ndindex(out.shape):
        rho2 = float(sum((i - m) ** 2 for i in idx))
        v = amp * math.exp(-rho2 / (2.0 * g * g * sigma * sigma)) - math.exp(-rho2 / (2.0 * sigma * sigma))
        out[idx] = 0.0 if abs(v) <= 1e-12 * (amp - 1.0) else v
    return out


def naive_balance(raw, c):
    """Scale each sign class of `raw` by c over its sum; zeros stay as they are.

    The positive entries then sum to +c and the negative ones to -c.  The
    class sums are numpy's sums of the class in C order, so a correct
    balancing agrees with this one byte for byte.
    """
    raw = np.asarray(raw, dtype=np.float64)
    pos = raw[raw > 0].sum()
    neg = raw[raw < 0].sum()
    return np.where(raw > 0, raw * (c / pos), np.where(raw < 0, raw * (c / abs(neg)), raw))


def naive_conv3d(x, w, bias=None, padding="same_zero"):
    """Direct window-sum convolution over (C_in, D, H, W) input.

    Loops over every output voxel and sums w * window explicitly.
    Cross-correlation orientation, matching the package convention.
    """
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
    if x.shape[0] != c_in:
        raise ValueError("channel mismatch")
    m = k // 2
    if padding == "same_zero":
        d, h, ww = x.shape[1:]
        xp = np.zeros((c_in, d + 2 * m, h + 2 * m, ww + 2 * m), dtype=np.float64)
        xp[:, m:m + d, m:m + h, m:m + ww] = x
        od, oh, ow = d, h, ww
    elif padding == "valid":
        xp = np.asarray(x, dtype=np.float64)
        od = x.shape[1] - k + 1
        oh = x.shape[2] - k + 1
        ow = x.shape[3] - k + 1
        if min(od, oh, ow) < 1:
            raise ValueError("kernel larger than input")
    else:
        raise ValueError(padding)
    out = np.zeros((c_out, od, oh, ow), dtype=np.float64)
    for o in range(c_out):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    window = xp[:, z:z + k, y:y + k, xx:xx + k]
                    out[o, z, y, xx] = np.sum(w[o] * window)
        if bias is not None:
            out[o] += bias[o]
    return out


def im2col(x, k, padding="same_zero"):
    """Whole-output im2col matrix of a (C, D, H, W) array, via np.pad and sliding_window_view.

    Row (i, kz, ky, kx) holds input channel i at tap offset (kz, ky, kx);
    column (z, y, x) is one output voxel; both run in C order.  A
    (C_out, C * k**3) weight matrix times this matrix is the convolution.
    """
    m = k // 2 if padding == "same_zero" else 0
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0),) + ((m, m),) * 3)
    win = sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    c, d, h, w = win.shape[:4]
    return win.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * k ** 3, d * h * w)


def naive_block_forward(x, params, cfg):
    """Straight-line re-statement of the two-pathway block forward.

    Uses naive_conv3d throughout, so it shares no convolution code with
    the implementation under test.  The stored On kernel K is lifted here:
    every (o, i) channel pair of the On injection holds K / c_in, and the
    Off injection is its negation.
    """
    kernel = params.on_kernel.data[0, 0]
    fixed_on = np.empty((cfg.c_out // 2, cfg.c_in) + kernel.shape)
    fixed_on[...] = kernel / cfg.c_in

    def path(w_first, fixed, w_second):
        pre1 = naive_conv3d(x, w_first.data, w_first.bias, "same_zero")
        pre1 = pre1 + naive_conv3d(x, fixed, None, "same_zero")
        a1 = np.maximum(pre1, 0.0)
        pre2 = naive_conv3d(a1, w_second.data, w_second.bias, "same_zero")
        return np.maximum(pre2, 0.0)

    on = path(params.w1_on, fixed_on, params.w2_on)
    off = path(params.w1_off, -fixed_on, params.w2_off)
    return np.concatenate([on, off], axis=0)


def two_pathway_param_count(c_in, c_out, k):
    """Learnables of the two-pathway block with its On/Off injections removed.

    Each pathway is conv c_in -> c_out/2 then conv c_out/2 -> c_out/2; every
    layer holds a (c_out/2, layer c_in, k, k, k) kernel and a (c_out/2,)
    bias, multiplied out shape by shape.  The injections are fixed and
    hold no learnables.
    """
    half = c_out // 2
    total = 0
    for layer_in in (c_in, half):
        for shape in ((half, layer_in, k, k, k), (half,)):
            total += int(np.prod(shape))
    return 2 * total


def plain_block_param_count(c_in, c_out, k):
    """Learnables of the full-width two-conv block: conv c_in -> c_out, then c_out -> c_out.

    A comparison figure, not the parity target: with its second stage on
    half-width inputs the two-pathway block holds (c_out**2 / 2) * k**3
    fewer.
    """
    return c_out * c_in * k ** 3 + c_out + c_out * c_out * k ** 3 + c_out


def fftn_motion_splice(copies):
    """Full 3-D FFT slab splice of motion-corrupted copies.

    copies[0] is the unmoved volume and copies[j] moved copy j.  The
    first-axis frequency rows split into len(copies) equal slabs, the
    remainder going to the last; slab j comes from the 3-D spectrum of
    copies[j], and the real part of the 3-D inverse is returned.
    """
    spectra = [np.fft.fftn(c) for c in copies]
    d = spectra[0].shape[0]
    n_slabs = len(spectra)
    base = d // n_slabs
    composite = np.empty_like(spectra[0])
    for j, spectrum in enumerate(spectra):
        hi = (j + 1) * base if j < n_slabs - 1 else d
        composite[j * base:hi] = spectrum[j * base:hi]
    return np.fft.ifftn(composite).real


def separable_blur(data, sigma):
    """Gaussian blur as three whole-volume correlate1d passes, depth axis first.

    The taps span ceil(4 sigma) each side and are rescaled to sum to
    one; edges reflect.
    """
    radius = int(np.ceil(4.0 * sigma))
    taps = np.exp(-(np.arange(-radius, radius + 1, dtype=np.float64) ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = data
    for axis in range(3):
        out = ndimage.correlate1d(out, taps, axis=axis, mode="reflect")
    return out


def map_coordinates_resample(data, spacing, target, order):
    """Voxel-center resampling through one dense coordinate grid.

    Output index j on an axis of n voxels at spacing s, for target
    spacing t, samples u = clip((j + 0.5) * t / s - 0.5, 0, n - 1); the
    output has floor(n * s / t + 0.5) voxels.  All points go to scipy's
    map_coordinates at once: order 1 interpolates trilinearly, order 0
    takes the nearest voxel of a 0/1 uint8 copy and returns booleans.
    """
    axes = []
    for n, s, t in zip(data.shape, spacing, target):
        m = int(np.floor(n * s / t + 0.5))
        axes.append(np.clip((np.arange(m, dtype=np.float64) + 0.5) * (t / s) - 0.5, 0.0, n - 1.0))
    coords = np.stack(np.meshgrid(*axes, indexing="ij"))
    if order == 0:
        return ndimage.map_coordinates(data.astype(np.uint8), coords, order=0, mode="nearest") != 0
    return ndimage.map_coordinates(data, coords, order=order, mode="nearest")


def brute_hausdorff_mm(mask_a, mask_b, spacing):
    """Symmetric Hausdorff distance from the full pairwise matrix."""
    sp = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(mask_a).astype(np.float64) * sp
    pb = np.argwhere(mask_b).astype(np.float64) * sp
    if pa.size == 0 or pb.size == 0:
        raise ValueError("empty mask")
    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


def brute_dice(mask_a, mask_b):
    na = int(mask_a.sum())
    nb = int(mask_b.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int(np.logical_and(mask_a, mask_b).sum())
    return 2.0 * inter / (na + nb)


def central_difference(f, arr, h=1e-5):
    """Per-coordinate central difference of scalar f at arr."""
    arr = np.asarray(arr, dtype=np.float64)
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = arr.copy()
        up[idx] += h
        down = arr.copy()
        down[idx] -= h
        grad[idx] = (f(up) - f(down)) / (2.0 * h)
    return grad


def max_rel_err(analytic, estimate):
    """Worst-case elementwise relative error with an absolute floor.

    The floor keeps near-zero coordinates from dominating: a pair of
    values both below 1e-8 in magnitude counts as agreeing.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(estimate, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
