//! Minimal CHW tensors and neural-network ops with explicit backward
//! passes.
//!
//! Everything operates on a single sample (channels × height × width);
//! batching is at the training level (on the wall-clock pool there). Ops are
//! written for clarity and verified by finite-difference gradient checks in
//! the test suite — correctness over peak speed, with the hot inner loops
//! kept allocation-free.

// Index-based loops mirror the maths (i/j/o/k subscripts) in these
// numeric kernels; iterator adaptors would obscure the indexing.
#![allow(clippy::needless_range_loop)]

/// A dense CHW tensor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Row-major data, `data[ch * h * w + y * w + x]`.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// From existing data (length must match).
    pub fn from_data(c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), c * h * w, "shape/data mismatch");
        Self { c, h, w, data }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, ch: usize, y: usize, x: usize) -> f32 {
        self.data[(ch * self.h + y) * self.w + x]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, ch: usize, y: usize, x: usize) -> &mut f32 {
        &mut self.data[(ch * self.h + y) * self.w + x]
    }

    /// Mean squared difference to another tensor of the same shape.
    pub fn mse(&self, other: &Tensor) -> f32 {
        assert_eq!(self.data.len(), other.data.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / self.data.len() as f32
    }
}

/// Convolution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel height/width (square kernels).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub pad: usize,
}

impl ConvSpec {
    /// Output spatial size for an input of size `n`.
    pub fn out_size(&self, n: usize) -> usize {
        (n + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Transposed-conv output size for an input of size `n`.
    pub fn tconv_out_size(&self, n: usize) -> usize {
        (n - 1) * self.stride + self.k - 2 * self.pad
    }
}

/// Forward convolution. `w` is `[c_out][c_in][k][k]` flattened; `b` is per
/// output channel.
///
/// Every output starts at `b[o]` and adds its in-bounds taps in ascending
/// `(i, ky, kx)` order, one `acc + x·w` per tap, whichever kernel
/// [`conv2d_fwd_chw`] picks. Both split an input row into its `stride`
/// phases (the source columns `stride·ox + kx − pad` of consecutive `ox` are
/// consecutive elements of one phase), and take the border as a range of
/// `ox` per `kx` instead of a branch per tap.
pub fn conv2d_fwd(x: &Tensor, w: &[f32], b: &[f32], c_out: usize, spec: ConvSpec) -> Tensor {
    let mut y = Tensor::default();
    conv2d_fwd_chw(&x.data, [x.c, x.h, x.w], w, b, c_out, spec, &mut y);
    y
}

/// [`conv2d_fwd`] over borrowed CHW data of shape `[c, h, w]` into `y`, so a
/// caller that holds many samples in one buffer convolves them where they
/// lie; `y` takes the output's shape and keeps its allocation, so one output
/// serves sample after sample.
///
/// The input rows a call splits into phases (and the AVX2 kernel's
/// repacked weights) ride in `y.data` past the output: a call grows it by
/// them and truncates it back, so a held `y` keeps that room too and a warm
/// call allocates nothing.
///
/// Runs [`conv2d_fwd_avx2`] on an x86-64 CPU with AVX2 (std caches the CPUID
/// answer) and [`conv2d_fwd_portable`] everywhere else. Both add the same
/// IEEE operations in the same order to every output.
pub(crate) fn conv2d_fwd_chw(
    x: &[f32],
    shape: [usize; 3],
    w: &[f32],
    b: &[f32],
    c_out: usize,
    spec: ConvSpec,
    y: &mut Tensor,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, the one feature the kernel is built for.
        return unsafe { conv2d_fwd_avx2(x, shape, w, b, c_out, spec, y) };
    }
    conv2d_fwd_portable(x, shape, w, b, c_out, spec, y)
}

/// Output channels one AVX2 block keeps in registers.
#[cfg(target_arch = "x86_64")]
const BLOCK_CHANNELS: usize = 4;
/// Output columns of one AVX2 block: the lanes of a `__m256`.
#[cfg(target_arch = "x86_64")]
const BLOCK_COLUMNS: usize = 8;

/// [`conv2d_fwd_portable`]'s outputs, register-blocked for AVX2: a block of
/// up to 4 output channels × 8 output columns of one output row lives in
/// four `__m256` accumulators while every tap of the row is added, and is
/// stored once.
///
/// Each accumulator starts at its channel's bias. The taps follow in
/// ascending `(i, ky, kx)` order as one `_mm256_mul_ps` of the broadcast
/// weight by eight input columns, then one `_mm256_add_ps`, never a fused
/// multiply-add, so every lane rounds as `acc += x·w` does. A tap row
/// outside the input is skipped whole. A lane whose column a tap does not
/// reach keeps its accumulator through a blend: adding `0·w` instead would
/// turn a `−0.0` sum into `+0.0`. A partial block at the right edge computes
/// lanes it does not store; one with fewer than 4 channels left repeats the
/// last one in the spare accumulators.
///
/// Per output row the tap rows are split into their `stride` phases, so the
/// eight columns `stride·ox + kx − pad` of consecutive `ox` are one unit-
/// stride load. Each phase starts after a margin and runs past the last
/// block, so every lane of every tap loads in bounds of the row. The
/// weights are repacked once per call, a block's 4 channels side by side
/// per tap; both ride in `y.data` past the output.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv2d_fwd_avx2(
    x: &[f32],
    [c_in, xh, xw]: [usize; 3],
    w: &[f32],
    b: &[f32],
    c_out: usize,
    spec: ConvSpec,
    y: &mut Tensor,
) {
    use std::arch::x86_64::*;
    assert_eq!(x.len(), c_in * xh * xw, "shape/data mismatch");
    let (k, stride, pad) = (spec.k, spec.stride, spec.pad);
    assert_eq!(w.len(), c_out * c_in * k * k);
    assert_eq!(b.len(), c_out);
    let oh = spec.out_size(xh);
    let ow = spec.out_size(xw);
    (y.c, y.h, y.w) = (c_out, oh, ow);
    let out_len = c_out * oh * ow;
    let blocks = ow.div_ceil(BLOCK_COLUMNS);
    let taps_len = c_out.div_ceil(BLOCK_CHANNELS) * BLOCK_CHANNELS * c_in * k * k;
    // Input column `stride·j + q` sits at `q·plen + left + j` of its tap
    // row's phases. With `q0 = left·stride − pad`, tap `kx` of output column
    // `ox` reads column `stride·(ox − left) + q0 + kx`: phase
    // `(q0 + kx) mod stride` at position `ox + ⌊(q0 + kx) / stride⌋`. So the
    // margin `left` puts the leftmost read at 0, and `plen` takes the
    // rightmost one of the last block.
    let left = pad.div_ceil(stride);
    let q0 = left * stride - pad;
    let plen = (left + xw.div_ceil(stride))
        .max(blocks * BLOCK_COLUMNS + (q0 + k.saturating_sub(1)) / stride);
    let phases = PhaseRows {
        plen,
        stride,
        q0,
        lo: left,
        full: left + xw / stride,
        extra: xw % stride,
    };
    // The unchecked loads rely on this: the last block's rightmost tap ends
    // its 8 lanes inside the phase. Positions also fit the masks' `i32`.
    assert!(blocks * BLOCK_COLUMNS + (q0 + k.saturating_sub(1)) / stride <= plen);
    assert!(
        i32::try_from(plen).is_ok(),
        "row too wide for the lane masks"
    );
    let row_len = stride * plen;
    // Cleared first, so the margins a masked lane reads hold 0.0 and not a
    // stale float (a subnormal there would cost time, never bits).
    y.data.truncate(out_len);
    y.data.resize(out_len + taps_len + c_in * k * row_len, 0.0);
    let (out, rest) = y.data.split_at_mut(out_len);
    let (taps, rows) = rest.split_at_mut(taps_len);
    // `taps[(((ob·c_in + i)·k + ky)·k + kx)·4 + c]` is the weight of channel
    // `4·ob + c` (the last one again past `c_out`).
    let per_channel = c_in * k * k;
    let tap_blocks = taps.chunks_exact_mut((per_channel * BLOCK_CHANNELS).max(1));
    for (ob, block) in tap_blocks.enumerate() {
        for (t, tap) in block.chunks_exact_mut(BLOCK_CHANNELS).enumerate() {
            for (c, v) in tap.iter_mut().enumerate() {
                *v = w[(ob * BLOCK_CHANNELS + c).min(c_out - 1) * per_channel + t];
            }
        }
    }
    // The output columns every tap reaches: `kx = 0` from `left` on, and
    // `kx = k − 1` up to this end. A block inside them needs no blend.
    let every_tap = left..ow.min(
        (xw + pad)
            .saturating_sub(k.saturating_sub(1))
            .div_ceil(stride),
    );
    for oy in 0..oh {
        // The tap rows `ky` of this output row that lie inside the input.
        let ky_lo = pad.saturating_sub(oy * stride);
        let ky_hi = k.min((xh + pad).saturating_sub(oy * stride));
        for i in 0..c_in {
            for ky in ky_lo..ky_hi {
                let sy = oy * stride + ky - pad;
                let xrow = &x[(i * xh + sy) * xw..][..xw];
                let slot = &mut rows[(i * k + ky) * row_len..][..row_len];
                split_phases(xrow, slot, plen, left, stride);
            }
        }
        for (ob, o0) in (0..c_out).step_by(BLOCK_CHANNELS).enumerate() {
            for blk in 0..blocks {
                let ox0 = blk * BLOCK_COLUMNS;
                let cols = BLOCK_COLUMNS.min(ow - ox0);
                let mut acc = [_mm256_setzero_ps(); BLOCK_CHANNELS];
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_set1_ps(b[(o0 + c).min(c_out - 1)]);
                }
                let interior = every_tap.start <= ox0 && ox0 + cols <= every_tap.end;
                for i in 0..c_in {
                    for ky in ky_lo..ky_hi {
                        let row = &rows[(i * k + ky) * row_len..][..row_len];
                        let tap_row = ((ob * c_in + i) * k + ky) * k * BLOCK_CHANNELS;
                        let tap_row = &taps[tap_row..][..k * BLOCK_CHANNELS];
                        if interior {
                            add_tap_row::<false>(&mut acc, row, tap_row, &phases, ox0);
                        } else {
                            add_tap_row::<true>(&mut acc, row, tap_row, &phases, ox0);
                        }
                    }
                }
                for (c, a) in acc.iter().enumerate().take(c_out - o0) {
                    let dst = &mut out[((o0 + c) * oh + oy) * ow + ox0..][..cols];
                    if cols == BLOCK_COLUMNS {
                        _mm256_storeu_ps(dst.as_mut_ptr(), *a);
                    } else {
                        let mut lanes = [0.0f32; BLOCK_COLUMNS];
                        _mm256_storeu_ps(lanes.as_mut_ptr(), *a);
                        dst.copy_from_slice(&lanes[..cols]);
                    }
                }
            }
        }
    }
    y.data.truncate(out_len);
}

/// Copies input column `stride·j + q` of `xrow` to `slot[q·plen + left + j]`,
/// for [`conv2d_fwd_avx2`]. Stride 2, the encoder's, deinterleaves 16
/// columns at a time.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn split_phases(xrow: &[f32], slot: &mut [f32], plen: usize, left: usize, stride: usize) {
    use std::arch::x86_64::*;
    // Columns of each phase already written.
    let mut done = 0;
    if stride == 2 {
        let (even, odd) = slot.split_at_mut(plen);
        for (j, cols) in xrow.chunks_exact(2 * BLOCK_COLUMNS).enumerate() {
            let a = _mm256_loadu_ps(cols.as_ptr());
            let b = _mm256_loadu_ps(cols[BLOCK_COLUMNS..].as_ptr());
            // Per 128-bit half: a0 a2 b0 b2 | a4 a6 b4 b6, then the middle
            // 64-bit pairs swap: a0 a2 a4 a6 b0 b2 b4 b6. Likewise the odd.
            let pick =
                |v: __m256| _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(v)));
            let at = left + j * BLOCK_COLUMNS;
            _mm256_storeu_ps(
                even[at..][..BLOCK_COLUMNS].as_mut_ptr(),
                pick(_mm256_shuffle_ps::<0x88>(a, b)),
            );
            _mm256_storeu_ps(
                odd[at..][..BLOCK_COLUMNS].as_mut_ptr(),
                pick(_mm256_shuffle_ps::<0xDD>(a, b)),
            );
        }
        done = xrow.len() / (2 * BLOCK_COLUMNS) * BLOCK_COLUMNS;
    }
    for (q, phase) in slot.chunks_exact_mut(plen).enumerate() {
        let src = xrow.get(stride * done + q..).unwrap_or_default();
        for (dst, &v) in phase[left + done..]
            .iter_mut()
            .zip(src.iter().step_by(stride))
        {
            *dst = v;
        }
    }
}

/// Where [`conv2d_fwd_avx2`]'s taps find their input columns in a tap
/// row's phases.
#[cfg(target_arch = "x86_64")]
struct PhaseRows {
    /// Length of one phase.
    plen: usize,
    stride: usize,
    /// The phase tap `kx = 0` reads; its lane `ox` is at position `ox`.
    q0: usize,
    /// First position that holds an input column.
    lo: usize,
    /// One past the last position that holds one in a phase `≥ extra`; the
    /// phases below `extra` hold one more.
    full: usize,
    extra: usize,
}

/// Adds one tap row's `k` taps, in ascending `kx`, to the block at `ox0`.
/// With `EDGE`, a tap that does not reach all 8 columns is blended into
/// only the lanes it reaches.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_tap_row<const EDGE: bool>(
    acc: &mut [std::arch::x86_64::__m256; BLOCK_CHANNELS],
    row: &[f32],
    taps: &[f32],
    ph: &PhaseRows,
    ox0: usize,
) {
    use std::arch::x86_64::*;
    let (mut q, mut p) = (ph.q0, ox0);
    for tap in taps.chunks_exact(BLOCK_CHANNELS) {
        debug_assert!(q * ph.plen + p + BLOCK_COLUMNS <= row.len());
        // SAFETY: `row` holds `stride` phases of `plen` and `q < stride`;
        // `p + 8` is largest at the last block's last tap, which
        // `conv2d_fwd_avx2` asserts is at most `plen`.
        let v = _mm256_loadu_ps(row.as_ptr().add(q * ph.plen + p));
        // Positions `lo..end` of this phase hold input columns.
        let end = ph.full + usize::from(q < ph.extra);
        if EDGE && !(p >= ph.lo && p + BLOCK_COLUMNS <= end) {
            let at = _mm256_add_epi32(
                _mm256_set1_epi32(p as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let keep = _mm256_castsi256_ps(_mm256_and_si256(
                _mm256_cmpgt_epi32(at, _mm256_set1_epi32(ph.lo as i32 - 1)),
                _mm256_cmpgt_epi32(_mm256_set1_epi32(end as i32), at),
            ));
            for c in 0..BLOCK_CHANNELS {
                let sum = _mm256_add_ps(acc[c], _mm256_mul_ps(v, _mm256_set1_ps(tap[c])));
                acc[c] = _mm256_blendv_ps(acc[c], sum, keep);
            }
        } else {
            for c in 0..BLOCK_CHANNELS {
                acc[c] = _mm256_add_ps(acc[c], _mm256_mul_ps(v, _mm256_set1_ps(tap[c])));
            }
        }
        if q + 1 == ph.stride {
            (q, p) = (0, p + 1);
        } else {
            q += 1;
        }
    }
}

/// The portable body of [`conv2d_fwd_chw`]: tap by tap over whole output
/// rows, so the innermost loop is a unit-stride `row += src · w` the
/// compiler vectorises four lanes wide.
fn conv2d_fwd_portable(
    x: &[f32],
    [c_in, xh, xw]: [usize; 3],
    w: &[f32],
    b: &[f32],
    c_out: usize,
    spec: ConvSpec,
    y: &mut Tensor,
) {
    assert_eq!(x.len(), c_in * xh * xw, "shape/data mismatch");
    let (k, stride) = (spec.k, spec.stride);
    assert_eq!(w.len(), c_out * c_in * k * k);
    assert_eq!(b.len(), c_out);
    let oh = spec.out_size(xh);
    let ow = spec.out_size(xw);
    (y.c, y.h, y.w) = (c_out, oh, ow);
    let out_len = c_out * oh * ow;
    // Phase `p` of the current input row (its columns `p, p + stride, …`) is
    // `phases[p * plen..]`.
    let plen = xw.div_ceil(stride);
    y.data.resize(out_len + stride * plen, 0.0);
    let (out, phases) = y.data.split_at_mut(out_len);
    for (plane, &bias) in out.chunks_exact_mut((oh * ow).max(1)).zip(b) {
        plane.fill(bias);
    }
    for oy in 0..oh {
        for i in 0..c_in {
            for ky in 0..k {
                let Some(sy) = (oy * stride + ky).checked_sub(spec.pad) else {
                    continue;
                };
                if sy >= xh {
                    continue;
                }
                let xrow = &x[(i * xh + sy) * xw..][..xw];
                for (p, phase) in phases.chunks_exact_mut(plen).enumerate() {
                    let src = xrow.get(p..).unwrap_or_default().iter().step_by(stride);
                    for (dst, &v) in phase.iter_mut().zip(src) {
                        *dst = v;
                    }
                }
                for kx in 0..k {
                    // The output columns `lo..hi` tap `kx` reaches; the first
                    // one's source column is `sx`.
                    let lo = spec.pad.saturating_sub(kx).div_ceil(stride);
                    let hi = (xw + spec.pad).saturating_sub(kx).div_ceil(stride).min(ow);
                    if lo >= hi {
                        continue;
                    }
                    let sx = stride * lo + kx - spec.pad;
                    let src = &phases[(sx % stride) * plen + sx / stride..][..hi - lo];
                    for o in 0..c_out {
                        let wv = w[((o * c_in + i) * k + ky) * k + kx];
                        let yrow = &mut out[(o * oh + oy) * ow..][..ow];
                        for (acc, &xv) in yrow[lo..hi].iter_mut().zip(src) {
                            *acc += xv * wv;
                        }
                    }
                }
            }
        }
    }
    y.data.truncate(out_len);
}

/// Backward convolution: returns `(dx, dw, db)` for upstream gradient `dy`.
pub fn conv2d_bwd(
    x: &Tensor,
    w: &[f32],
    dy: &Tensor,
    c_out: usize,
    spec: ConvSpec,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let c_in = x.c;
    let mut dx = Tensor::zeros(x.c, x.h, x.w);
    let mut dw = vec![0.0f32; w.len()];
    let mut db = vec![0.0f32; c_out];
    for o in 0..c_out {
        for oy in 0..dy.h {
            for ox in 0..dy.w {
                let g = dy.at(o, oy, ox);
                db[o] += g;
                for i in 0..c_in {
                    for ky in 0..spec.k {
                        let sy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if sy < 0 || sy >= x.h as isize {
                            continue;
                        }
                        for kx in 0..spec.k {
                            let sx = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if sx < 0 || sx >= x.w as isize {
                                continue;
                            }
                            let wi = ((o * c_in + i) * spec.k + ky) * spec.k + kx;
                            dw[wi] += g * x.at(i, sy as usize, sx as usize);
                            *dx.at_mut(i, sy as usize, sx as usize) += g * w[wi];
                        }
                    }
                }
            }
        }
    }
    (dx, dw, db)
}

/// Forward transposed convolution. `w` is `[c_in][c_out][k][k]` flattened.
pub fn tconv2d_fwd(x: &Tensor, w: &[f32], b: &[f32], c_out: usize, spec: ConvSpec) -> Tensor {
    let c_in = x.c;
    assert_eq!(w.len(), c_in * c_out * spec.k * spec.k);
    assert_eq!(b.len(), c_out);
    let oh = spec.tconv_out_size(x.h);
    let ow = spec.tconv_out_size(x.w);
    let mut y = Tensor::zeros(c_out, oh, ow);
    for o in 0..c_out {
        for e in y.data[o * oh * ow..(o + 1) * oh * ow].iter_mut() {
            *e = b[o];
        }
    }
    for i in 0..c_in {
        for sy in 0..x.h {
            for sx in 0..x.w {
                let v = x.at(i, sy, sx);
                for o in 0..c_out {
                    for ky in 0..spec.k {
                        let oy = (sy * spec.stride + ky) as isize - spec.pad as isize;
                        if oy < 0 || oy >= oh as isize {
                            continue;
                        }
                        for kx in 0..spec.k {
                            let ox = (sx * spec.stride + kx) as isize - spec.pad as isize;
                            if ox < 0 || ox >= ow as isize {
                                continue;
                            }
                            *y.at_mut(o, oy as usize, ox as usize) +=
                                v * w[((i * c_out + o) * spec.k + ky) * spec.k + kx];
                        }
                    }
                }
            }
        }
    }
    y
}

/// Backward transposed convolution: `(dx, dw, db)`.
pub fn tconv2d_bwd(
    x: &Tensor,
    w: &[f32],
    dy: &Tensor,
    c_out: usize,
    spec: ConvSpec,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let c_in = x.c;
    let mut dx = Tensor::zeros(x.c, x.h, x.w);
    let mut dw = vec![0.0f32; w.len()];
    let mut db = vec![0.0f32; c_out];
    let (oh, ow) = (dy.h, dy.w);
    for o in 0..c_out {
        for oy in 0..oh {
            for ox in 0..ow {
                db[o] += dy.at(o, oy, ox);
            }
        }
    }
    for i in 0..c_in {
        for sy in 0..x.h {
            for sx in 0..x.w {
                let v = x.at(i, sy, sx);
                let mut acc = 0.0f32;
                for o in 0..c_out {
                    for ky in 0..spec.k {
                        let oy = (sy * spec.stride + ky) as isize - spec.pad as isize;
                        if oy < 0 || oy >= oh as isize {
                            continue;
                        }
                        for kx in 0..spec.k {
                            let ox = (sx * spec.stride + kx) as isize - spec.pad as isize;
                            if ox < 0 || ox >= ow as isize {
                                continue;
                            }
                            let g = dy.at(o, oy as usize, ox as usize);
                            let wi = ((i * c_out + o) * spec.k + ky) * spec.k + kx;
                            acc += g * w[wi];
                            dw[wi] += g * v;
                        }
                    }
                }
                *dx.at_mut(i, sy, sx) = acc;
            }
        }
    }
    (dx, dw, db)
}

/// Leaky ReLU forward (slope 0.1 for negatives).
pub fn leaky_relu_fwd(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    leaky_relu_in_place(&mut y);
    y
}

/// [`leaky_relu_fwd`] overwriting its input, for callers that do not keep
/// the pre-activation.
///
/// Both arms are computed and one is selected, so the loop has no branch per
/// element and vectorises; the values are those of `if v < 0 { v * 0.1 }`.
pub fn leaky_relu_in_place(x: &mut Tensor) {
    for v in &mut x.data {
        let scaled = *v * 0.1;
        *v = if *v < 0.0 { scaled } else { *v };
    }
}

/// [`leaky_relu_in_place`] as it was first written, a branch per element:
/// what the select must equal bit for bit.
#[cfg(test)]
pub(crate) fn leaky_relu_in_place_reference(x: &mut Tensor) {
    for v in &mut x.data {
        if *v < 0.0 {
            *v *= 0.1;
        }
    }
}

/// Leaky ReLU backward: `dx = dy ⊙ f'(x)`.
pub fn leaky_relu_bwd(x: &Tensor, dy: &Tensor) -> Tensor {
    let mut dx = dy.clone();
    for (d, &xv) in dx.data.iter_mut().zip(&x.data) {
        if xv < 0.0 {
            *d *= 0.1;
        }
    }
    dx
}

/// Dense forward: `y = W·x + b`, `W` is `[out][in]` flattened.
///
/// Each output is `b[o] + Σᵢ w[o][i]·x[i]` summed from 0.0 in ascending `i`.
/// Rows are walked [`DENSE_ROWS`] at a time in lockstep, so that many
/// independent accumulators are in flight instead of one serial chain; each
/// output's own sum order is unchanged.
pub fn dense_fwd(x: &[f32], w: &[f32], b: &[f32]) -> Vec<f32> {
    let n_out = b.len();
    let n_in = x.len();
    assert_eq!(w.len(), n_out * n_in);
    let mut y = Vec::with_capacity(n_out);
    for (o0, bias) in b.chunks(DENSE_ROWS).enumerate() {
        let rows = &w[o0 * DENSE_ROWS * n_in..][..bias.len() * n_in];
        let mut acc = [0.0f32; DENSE_ROWS];
        for (i, &xi) in x.iter().enumerate() {
            for (a, wi) in acc.iter_mut().zip(rows[i..].iter().step_by(n_in)) {
                *a += wi * xi;
            }
        }
        y.extend(bias.iter().zip(acc).map(|(b, a)| b + a));
    }
    y
}

/// Rows [`dense_fwd`] advances together.
const DENSE_ROWS: usize = 8;

/// `w` (`[n_out][n_in]`, as [`dense_fwd`] takes it) as `[n_in][n_out]`, for
/// [`dense_fwd_transposed_into`].
pub(crate) fn transpose(w: &[f32], n_out: usize) -> Vec<f32> {
    let n_in = w.len().checked_div(n_out).unwrap_or(0);
    let mut wt = vec![0.0f32; w.len()];
    for (o, row) in w.chunks_exact(n_in.max(1)).enumerate() {
        for (i, &v) in row.iter().enumerate() {
            wt[i * n_out + o] = v;
        }
    }
    wt
}

/// [`dense_fwd`] over `wt`, the [`transpose`] of its `w`, into `y`:
/// bit-identical, for a wide input and few outputs (the encoder's latent
/// layer). One input's weights for [`DENSE_COLS`] outputs lie side by side,
/// so the accumulators advance as vectors over unit-stride loads where
/// `dense_fwd` gathers its rows `n_in` floats apart. Each output still adds
/// its `w·x` terms from 0.0 in ascending `i`. `y` keeps its allocation.
pub(crate) fn dense_fwd_transposed_into(x: &[f32], wt: &[f32], b: &[f32], y: &mut Vec<f32>) {
    let n_out = b.len();
    assert_eq!(wt.len(), n_out * x.len());
    y.clear();
    for (o0, bias) in b.chunks(DENSE_COLS).enumerate() {
        let mut acc = [0.0f32; DENSE_COLS];
        for (&xi, row) in x.iter().zip(wt.chunks_exact(n_out.max(1))) {
            let cols = &row[o0 * DENSE_COLS..][..bias.len()];
            for (a, wi) in acc.iter_mut().zip(cols) {
                *a += wi * xi;
            }
        }
        y.extend(bias.iter().zip(acc).map(|(b, a)| b + a));
    }
}

/// Outputs [`dense_fwd_transposed_into`] advances together.
const DENSE_COLS: usize = 24;

/// Dense backward: `(dx, dw, db)`.
pub fn dense_bwd(x: &[f32], w: &[f32], dy: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let n_out = dy.len();
    let n_in = x.len();
    let mut dx = vec![0.0f32; n_in];
    let mut dw = vec![0.0f32; w.len()];
    for o in 0..n_out {
        let g = dy[o];
        let row = &w[o * n_in..(o + 1) * n_in];
        let drow = &mut dw[o * n_in..(o + 1) * n_in];
        for i in 0..n_in {
            dx[i] += g * row[i];
            drow[i] = g * x[i];
        }
    }
    (dx, dw, dy.to_vec())
}

/// Adam optimizer state for one parameter buffer.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    /// Learning rate.
    pub lr: f32,
}

impl Adam {
    /// State for a buffer of `n` parameters.
    pub fn new(n: usize, lr: f32) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    /// Apply one update step in place.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_util::rng::{Rng64, Xoshiro256};

    fn rand_tensor(rng: &mut Xoshiro256, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_data(
            c,
            h,
            w,
            (0..c * h * w)
                .map(|_| rng.normal(0.0, 1.0) as f32)
                .collect(),
        )
    }

    fn rand_vec(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.normal(0.0, 0.5) as f32).collect()
    }

    /// The definition [`conv2d_fwd`] must reproduce bit for bit: one
    /// accumulator per output, a bounds check per tap.
    fn conv2d_fwd_reference(
        x: &Tensor,
        w: &[f32],
        b: &[f32],
        c_out: usize,
        spec: ConvSpec,
    ) -> Tensor {
        let c_in = x.c;
        assert_eq!(w.len(), c_out * c_in * spec.k * spec.k);
        assert_eq!(b.len(), c_out);
        let oh = spec.out_size(x.h);
        let ow = spec.out_size(x.w);
        let mut y = Tensor::zeros(c_out, oh, ow);
        for o in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b[o];
                    for i in 0..c_in {
                        for ky in 0..spec.k {
                            let sy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                            if sy < 0 || sy >= x.h as isize {
                                continue;
                            }
                            for kx in 0..spec.k {
                                let sx = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                if sx < 0 || sx >= x.w as isize {
                                    continue;
                                }
                                acc += x.at(i, sy as usize, sx as usize)
                                    * w[((o * c_in + i) * spec.k + ky) * spec.k + kx];
                            }
                        }
                    }
                    *y.at_mut(o, oy, ox) = acc;
                }
            }
        }
        y
    }

    /// [`dense_fwd_transposed_into`] into a fresh vector.
    fn dense_fwd_transposed(x: &[f32], wt: &[f32], b: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        dense_fwd_transposed_into(x, wt, b, &mut y);
        y
    }

    /// The definition [`dense_fwd`] must reproduce bit for bit: one serial
    /// accumulator per output.
    fn dense_fwd_reference(x: &[f32], w: &[f32], b: &[f32]) -> Vec<f32> {
        let n_out = b.len();
        let n_in = x.len();
        assert_eq!(w.len(), n_out * n_in);
        let mut y = b.to_vec();
        for o in 0..n_out {
            let row = &w[o * n_in..(o + 1) * n_in];
            let mut acc = 0.0f32;
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            y[o] += acc;
        }
        y
    }

    /// Scalar loss = sum(y) for gradient checking (so dL/dy = 1).
    fn grad_check_conv(stride: usize, pad: usize) {
        let mut rng = Xoshiro256::seed_from(42);
        let spec = ConvSpec { k: 3, stride, pad };
        let (c_in, c_out) = (2, 3);
        let x = rand_tensor(&mut rng, c_in, 6, 6);
        let w = rand_vec(&mut rng, c_out * c_in * 9);
        let b = rand_vec(&mut rng, c_out);
        let y = conv2d_fwd(&x, &w, &b, c_out, spec);
        let dy = Tensor::from_data(y.c, y.h, y.w, vec![1.0; y.len()]);
        let (dx, dw, db) = conv2d_bwd(&x, &w, &dy, c_out, spec);
        let eps = 1e-3f32;
        let loss = |x: &Tensor, w: &[f32], b: &[f32]| -> f32 {
            conv2d_fwd(x, w, b, c_out, spec).data.iter().sum()
        };
        // Check a scatter of coordinates in each buffer.
        for idx in [0usize, 7, 20, x.len() - 1] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let num = (loss(&xp, &w, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - dx.data[idx]).abs() < 0.05,
                "dx[{idx}] {num} vs {}",
                dx.data[idx]
            );
        }
        for idx in [0usize, 5, w.len() - 1] {
            let mut wp = w.clone();
            wp[idx] += eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - dw[idx]).abs() < 0.05,
                "dw[{idx}] {num} vs {}",
                dw[idx]
            );
        }
        for idx in 0..b.len() {
            let mut bp = b.clone();
            bp[idx] += eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - db[idx]).abs() < 0.05,
                "db[{idx}] {num} vs {}",
                db[idx]
            );
        }
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn conv_fwd_is_bit_identical_to_the_reference() {
        let mut rng = Xoshiro256::seed_from(0xC0);
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2, 3] {
                for pad in [0usize, 1, 2] {
                    for (h, w) in [(5usize, 7usize), (8, 8), (13, 6), (16, 33)] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let spec = ConvSpec { k, stride, pad };
                        let (c_in, c_out) = (3, 4);
                        let x = rand_tensor(&mut rng, c_in, h, w);
                        let wt = rand_vec(&mut rng, c_out * c_in * k * k);
                        let b = rand_vec(&mut rng, c_out);
                        let fast = conv2d_fwd(&x, &wt, &b, c_out, spec);
                        let slow = conv2d_fwd_reference(&x, &wt, &b, c_out, spec);
                        assert_eq!((fast.c, fast.h, fast.w), (slow.c, slow.h, slow.w));
                        assert_bits_eq(
                            &fast.data,
                            &slow.data,
                            &format!("k{k} s{stride} p{pad} {h}x{w}"),
                        );
                    }
                }
            }
        }
        // Padding wider than the input: whole taps fall outside.
        let spec = ConvSpec {
            k: 5,
            stride: 1,
            pad: 2,
        };
        let x = rand_tensor(&mut rng, 2, 1, 1);
        let wt = rand_vec(&mut rng, 3 * 2 * 25);
        let b = rand_vec(&mut rng, 3);
        assert_bits_eq(
            &conv2d_fwd(&x, &wt, &b, 3, spec).data,
            &conv2d_fwd_reference(&x, &wt, &b, 3, spec).data,
            "1x1 input",
        );
    }

    #[test]
    fn avx2_conv_twin_is_bit_identical_to_the_portable_body() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut rng = Xoshiro256::seed_from(0xA2);
            let down = ConvSpec {
                k: 3,
                stride: 2,
                pad: 1,
            };
            let flat = ConvSpec {
                k: 3,
                stride: 1,
                pad: 0,
            };
            let cases = [
                // The encoder's two layers at the 128 px and 32 px tiles.
                (6, 8, 128, 128, down),
                (8, 16, 64, 64, down),
                (6, 8, 32, 32, down),
                (8, 16, 16, 16, down),
                // Output rows that are not a multiple of eight lanes.
                (3, 5, 13, 17, down),
                (2, 3, 9, 31, down),
                (4, 8, 21, 45, down),
                (3, 4, 11, 23, flat),
                (2, 6, 20, 37, flat),
                (1, 2, 5, 3, flat),
            ];
            // Both outputs are reused from case to case, as an encoder's
            // scratch is from tile to tile; the first is fresh each time.
            let (mut portable, mut twin) = (Tensor::default(), Tensor::default());
            for (c_in, c_out, h, w, spec) in cases {
                let x = rand_vec(&mut rng, c_in * h * w);
                let wt = rand_vec(&mut rng, c_out * c_in * spec.k * spec.k);
                let b = rand_vec(&mut rng, c_out);
                let mut fresh = Tensor::default();
                conv2d_fwd_chw(&x, [c_in, h, w], &wt, &b, c_out, spec, &mut fresh);
                conv2d_fwd_portable(&x, [c_in, h, w], &wt, &b, c_out, spec, &mut portable);
                // SAFETY: the CPU has AVX2.
                unsafe { conv2d_fwd_avx2(&x, [c_in, h, w], &wt, &b, c_out, spec, &mut twin) };
                for out in [&twin, &fresh] {
                    assert_eq!((out.c, out.h, out.w), (portable.c, portable.h, portable.w));
                }
                let what = format!("{c_in}->{c_out} @ {h}x{w} s{}", spec.stride);
                assert_bits_eq(&twin.data, &portable.data, &what);
                assert_bits_eq(&fresh.data, &portable.data, &what);
            }
            return;
        }
        eprintln!("no AVX2 on this host: the conv twin comparison was skipped");
    }

    #[test]
    fn register_blocked_conv_is_bit_identical_over_odd_shapes_and_signed_zeros() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut rng = Xoshiro256::seed_from(0x4B8);
            // Normal draws with every 5th a +0.0, every 7th a −0.0 and every
            // 11th a subnormal of either sign.
            let mut values = |n: usize| -> Vec<f32> {
                let mut v = rand_vec(&mut rng, n);
                for (j, x) in v.iter_mut().enumerate() {
                    if j % 11 == 3 {
                        *x = f32::from_bits(1 + j as u32 % 0x7F_FFFF) * x.signum();
                    } else if j % 7 == 2 {
                        *x = -0.0;
                    } else if j % 5 == 1 {
                        *x = 0.0;
                    }
                }
                v
            };
            let down = ConvSpec {
                k: 3,
                stride: 2,
                pad: 1,
            };
            let mut cases = vec![
                // The encoder's two layers at the 128 px and 32 px tiles.
                (6, 8, 128, 128, down),
                (8, 16, 64, 64, down),
                (6, 8, 32, 32, down),
                (8, 16, 16, 16, down),
            ];
            for (h, w) in [(37usize, 101usize), (1, 1), (2, 3)] {
                for k in 1..=4 {
                    for stride in 1..=3 {
                        for pad in 0..=2 {
                            if h + 2 * pad < k || w + 2 * pad < k {
                                continue;
                            }
                            for c_out in [1, 3, 5, 8, 16] {
                                cases.push((2, c_out, h, w, ConvSpec { k, stride, pad }));
                            }
                        }
                    }
                }
            }
            // Both outputs are reused from case to case, as an encoder's
            // scratch is from tile to tile.
            let (mut portable, mut blocked) = (Tensor::default(), Tensor::default());
            let mut check = |x: &Tensor, wt: &[f32], b: &[f32], c_out: usize, spec: ConvSpec| {
                let shape = [x.c, x.h, x.w];
                let reference = conv2d_fwd_reference(x, wt, b, c_out, spec);
                conv2d_fwd_portable(&x.data, shape, wt, b, c_out, spec, &mut portable);
                // SAFETY: the CPU has AVX2.
                unsafe { conv2d_fwd_avx2(&x.data, shape, wt, b, c_out, spec, &mut blocked) };
                let what = format!("{shape:?} -> {c_out} {spec:?}");
                for out in [&portable, &blocked] {
                    assert_eq!(
                        (out.c, out.h, out.w),
                        (reference.c, reference.h, reference.w)
                    );
                }
                assert_bits_eq(&blocked.data, &reference.data, &what);
                assert_bits_eq(&portable.data, &reference.data, &what);
                reference
            };
            for (c_in, c_out, h, w, spec) in cases {
                let x = Tensor::from_data(c_in, h, w, values(c_in * h * w));
                let wt = values(c_out * c_in * spec.k * spec.k);
                check(&x, &wt, &values(c_out), c_out, spec);
                // A −0.0 bias, −0.0 inputs and non-negative weights: every
                // output is −0.0, and a border tap added as `0·w` would make
                // it +0.0.
                let zeros = Tensor::from_data(c_in, h, w, vec![-0.0; c_in * h * w]);
                let wt: Vec<f32> = wt.iter().map(|v| v.abs()).collect();
                let all_negative_zero = check(&zeros, &wt, &vec![-0.0; c_out], c_out, spec);
                let negative_zero = (-0.0f32).to_bits();
                assert!(all_negative_zero
                    .data
                    .iter()
                    .all(|v| v.to_bits() == negative_zero));
            }
            return;
        }
        eprintln!("no AVX2 on this host: the register-blocked conv comparison was skipped");
    }

    #[test]
    fn dense_fwd_is_bit_identical_to_the_reference() {
        let mut rng = Xoshiro256::seed_from(0xDE);
        for (n_in, n_out) in [
            (0usize, 3usize),
            (1, 1),
            (10, 4),
            (37, 8),
            (64, 24),
            (5, 19),
        ] {
            let x = rand_vec(&mut rng, n_in);
            let w = rand_vec(&mut rng, n_in * n_out);
            let b = rand_vec(&mut rng, n_out);
            assert_bits_eq(
                &dense_fwd(&x, &w, &b),
                &dense_fwd_reference(&x, &w, &b),
                &format!("{n_in}->{n_out}"),
            );
        }
    }

    #[test]
    fn transposed_dense_fwd_is_bit_identical_to_dense_fwd() {
        let mut rng = Xoshiro256::seed_from(0xD7);
        for (n_in, n_out) in [
            (0usize, 3usize),
            (1, 1),
            (10, 4),
            (64, 24),
            (1024, 24),
            (37, 25),
            (5, 49),
        ] {
            let x = rand_vec(&mut rng, n_in);
            let w = rand_vec(&mut rng, n_in * n_out);
            let b = rand_vec(&mut rng, n_out);
            assert_bits_eq(
                &dense_fwd_transposed(&x, &transpose(&w, n_out), &b),
                &dense_fwd_reference(&x, &w, &b),
                &format!("{n_in}->{n_out}"),
            );
        }
    }

    #[test]
    fn leaky_relu_select_is_bit_identical_to_the_branch() {
        let mut rng = Xoshiro256::seed_from(0x1E);
        let mut x = rand_tensor(&mut rng, 3, 9, 11);
        x.data[..6].copy_from_slice(&[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-42, -1e-42]);
        x.data[6] = f32::NAN;
        let mut expected = x.clone();
        leaky_relu_in_place_reference(&mut expected);
        leaky_relu_in_place(&mut x);
        assert_bits_eq(&x.data, &expected.data, "leaky relu");
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        grad_check_conv(1, 1);
        grad_check_conv(2, 1);
        grad_check_conv(1, 0);
    }

    #[test]
    fn tconv_gradients_match_finite_differences() {
        let mut rng = Xoshiro256::seed_from(43);
        let spec = ConvSpec {
            k: 3,
            stride: 2,
            pad: 1,
        };
        let (c_in, c_out) = (3, 2);
        let x = rand_tensor(&mut rng, c_in, 4, 4);
        let w = rand_vec(&mut rng, c_in * c_out * 9);
        let b = rand_vec(&mut rng, c_out);
        let y = tconv2d_fwd(&x, &w, &b, c_out, spec);
        let dy = Tensor::from_data(y.c, y.h, y.w, vec![1.0; y.len()]);
        let (dx, dw, db) = tconv2d_bwd(&x, &w, &dy, c_out, spec);
        let eps = 1e-3f32;
        let loss = |x: &Tensor, w: &[f32], b: &[f32]| -> f32 {
            tconv2d_fwd(x, w, b, c_out, spec).data.iter().sum()
        };
        for idx in [0usize, 13, x.len() - 1] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let num = (loss(&xp, &w, &b) - loss(&x, &w, &b)) / eps;
            assert!((num - dx.data[idx]).abs() < 0.05, "dx[{idx}]");
        }
        for idx in [0usize, 11, w.len() - 1] {
            let mut wp = w.clone();
            wp[idx] += eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &w, &b)) / eps;
            assert!((num - dw[idx]).abs() < 0.05, "dw[{idx}]");
        }
        for idx in 0..b.len() {
            let mut bp = b.clone();
            bp[idx] += eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &b)) / eps;
            assert!((num - db[idx]).abs() < 0.05, "db[{idx}]");
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = Xoshiro256::seed_from(44);
        let x = rand_vec(&mut rng, 10);
        let w = rand_vec(&mut rng, 4 * 10);
        let b = rand_vec(&mut rng, 4);
        let dy = vec![1.0f32; 4];
        let (dx, dw, db) = dense_bwd(&x, &w, &dy);
        let eps = 1e-3f32;
        let loss = |x: &[f32], w: &[f32], b: &[f32]| -> f32 { dense_fwd(x, w, b).iter().sum() };
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp[idx] += eps;
            let num = (loss(&xp, &w, &b) - loss(&x, &w, &b)) / eps;
            assert!((num - dx[idx]).abs() < 0.02, "dx[{idx}]");
        }
        for idx in [0usize, 17, 39] {
            let mut wp = w.clone();
            wp[idx] += eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &w, &b)) / eps;
            assert!((num - dw[idx]).abs() < 0.02, "dw[{idx}]");
        }
        assert_eq!(db, dy);
    }

    #[test]
    fn conv_output_shapes() {
        // Down-sampling uses k=3/s=2/p=1; exact doubling back up needs
        // k=4/s=2/p=1 (k=3 would give 2n−1).
        let down = ConvSpec {
            k: 3,
            stride: 2,
            pad: 1,
        };
        let up = ConvSpec {
            k: 4,
            stride: 2,
            pad: 1,
        };
        assert_eq!(down.out_size(16), 8);
        assert_eq!(up.tconv_out_size(8), 16);
        let x = Tensor::zeros(6, 16, 16);
        let w = vec![0.0; 8 * 6 * 9];
        let b = vec![0.0; 8];
        let y = conv2d_fwd(&x, &w, &b, 8, down);
        assert_eq!((y.c, y.h, y.w), (8, 8, 8));
        let wt = vec![0.0; 8 * 6 * 16];
        let bt = vec![0.0; 6];
        let z = tconv2d_fwd(&y, &wt, &bt, 6, up);
        assert_eq!((z.c, z.h, z.w), (6, 16, 16));
    }

    #[test]
    fn conv_identity_kernel() {
        // A 1×1 kernel with weight 1 and zero bias reproduces the input.
        let mut rng = Xoshiro256::seed_from(3);
        let x = rand_tensor(&mut rng, 1, 5, 5);
        let spec = ConvSpec {
            k: 1,
            stride: 1,
            pad: 0,
        };
        let y = conv2d_fwd(&x, &[1.0], &[0.0], 1, spec);
        assert_eq!(y, x);
    }

    #[test]
    fn leaky_relu_fwd_bwd() {
        let x = Tensor::from_data(1, 1, 4, vec![-2.0, -0.5, 0.5, 2.0]);
        let y = leaky_relu_fwd(&x);
        assert_eq!(y.data, vec![-0.2, -0.05, 0.5, 2.0]);
        let dy = Tensor::from_data(1, 1, 4, vec![1.0; 4]);
        let dx = leaky_relu_bwd(&x, &dy);
        assert_eq!(dx.data, vec![0.1, 0.1, 1.0, 1.0]);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize ||p − target||² — Adam should converge quickly.
        let target = [3.0f32, -2.0, 0.5];
        let mut p = vec![0.0f32; 3];
        let mut opt = Adam::new(3, 0.05);
        for _ in 0..500 {
            let grads: Vec<f32> = p
                .iter()
                .zip(&target)
                .map(|(pi, t)| 2.0 * (pi - t))
                .collect();
            opt.step(&mut p, &grads);
        }
        for (pi, t) in p.iter().zip(&target) {
            assert!((pi - t).abs() < 0.01, "{pi} vs {t}");
        }
    }

    #[test]
    fn tensor_accessors_and_mse() {
        let mut t = Tensor::zeros(2, 3, 4);
        *t.at_mut(1, 2, 3) = 5.0;
        assert_eq!(t.at(1, 2, 3), 5.0);
        assert_eq!(t.len(), 24);
        let z = Tensor::zeros(2, 3, 4);
        assert!((t.mse(&z) - 25.0 / 24.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_shape_panics() {
        Tensor::from_data(1, 2, 2, vec![0.0; 5]);
    }
}
