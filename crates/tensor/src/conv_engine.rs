//! Tile-fused implicit-GEMM convolution kernels (DESIGN.md §11).
//!
//! The materialized path lowers convolution to `im2col` + GEMM, which
//! allocates the full patch matrix `[n·oh·ow, ic·kh·kw]` on every call —
//! the largest transient buffer in a training step and invisible to the
//! HMMS planner. The kernels here never build that matrix: they pack one
//! small tile of patch rows at a time into a per-thread scratch panel
//! (`scnn_par::scratch`), run the same `dot8`/`dot8_x4` micro-kernels the
//! GEMMs use against the weight matrix, and write results straight to
//! their destination.
//!
//! **Bit-identity with the materialized path is a hard invariant**, not an
//! approximation — it is what keeps seeded training goldens and the
//! split-vs-unsplit exactness argument valid regardless of which algorithm
//! the selector picks:
//!
//! - forward: every output element is `dot8(patch_row, weight_row) + bias`
//!   — elements are independent, and `dot8`'s reduction order depends only
//!   on the shared dimension, exactly as in [`matmul_a_bt`](crate::matmul_a_bt).
//! - `dw`: partial sums are blocked on the same `KC` boundaries as
//!   [`matmul_at_b`](crate::matmul_at_b), accumulate with `p` ascending
//!   (zero-skip on the `dy` factor included) inside each block, and fold
//!   in ascending block order.
//! - `dx`: each patch-row gradient reduces over output channels in
//!   ascending order with the same zero-skip as [`matmul`](crate::matmul),
//!   then scatters in [`col2im_into`](crate::col2im_into)'s `(oy, ox, ky,
//!   kx)` order, parallel per batch image only (`oy` windows overlap
//!   inside an image).
//!
//! Both backward reductions run on
//! [`rank_k_update`](crate::simd::rank_k_update), whose contract is that
//! of the GEMMs' zero-skipping `axpy` loop: per element the same
//! mul/add chain in the same order with the same skips. Output-channel
//! bands (`dw`), column strips and position tiles (`dx`) only partition
//! independent outputs, so they carry no bits. `dw` reads `dy` in place
//! (panels stop at image boundaries, so a panel's `dy` rows have stride 1
//! in `p` and `oh·ow` across channels); `dx` reduces a tile of positions
//! at a time into scratch rows, so the weights stream once per tile
//! rather than once per position.
//!
//! The weight tensor `[oc, ic, kh, kw]` is row-major contiguous, so its
//! natural layout *is* the `[oc, plen]` panel the micro-kernel wants —
//! "packing" the B side is the identity, which is why there is no weight
//! pack cache to invalidate on update.

use crate::im2col::Conv2dGeometry;
use crate::plan::{self, KernelPlan};
use crate::simd::{add_assign, dot8, dot8_x4, dot8_x8, rank_k_update, RankK, MR};
use crate::Tensor;
use scnn_par::{scratch, DisjointMut};
use std::ops::Range;

/// Which convolution implementation to run. `Tiled` and `Materialized`
/// produce identical bits — the choice between them is purely a
/// locality/footprint trade. `Winograd` is the opt-in transform-domain
/// fast path: deterministic in itself (same bits at any thread count,
/// ISA, or kernel plan) but **outside the bit-identity contract** with
/// the direct pair — its reduction runs in the transform domain, so
/// results agree only within epsilon (DESIGN.md §16). The executing
/// kernels live in `scnn-nn`, but the enum is defined here so the planner
/// (`scnn-core`) can reason about per-algorithm workspace without a
/// dependency on the executor crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvAlgo {
    /// Tile-fused implicit GEMM; no full patch-matrix allocation.
    Tiled,
    /// `im2col` + GEMM over workspace scratch (reference path).
    Materialized,
    /// Winograd F(2×2, 3×3) transform-domain convolution
    /// (`crate::winograd`); stride-1 3×3 kernels only, epsilon-equal to
    /// the direct algorithms, never chosen by [`default_conv_algo`].
    Winograd,
}

/// The geometry-based default algorithm choice (no override applied).
///
/// 1×1 kernels stay materialized: their `im2col` is a pure reshape, so the
/// GEMM already streams contiguously and tiling only adds pack traffic.
/// Tiny spatial outputs (fewer than 64 positions per image) also stay
/// materialized — per-tile dispatch would dominate the arithmetic.
pub fn default_conv_algo(g: &Conv2dGeometry) -> ConvAlgo {
    if (g.kh == 1 && g.kw == 1) || g.patch_count() < 64 {
        ConvAlgo::Materialized
    } else {
        ConvAlgo::Tiled
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Whether a conv layer's whole-batch weight-gradient reduction fits one
/// `KC`-row block (`n·oh·ow ≤ KC`, `KC` = [`KernelPlan::reduction_kc`]).
/// Such layers accumulate `dw` in a single sequential fold, so the kernels
/// continue it straight into the output with **no** partial-block scratch,
/// and any micro-batch boundary replays the fold bit-for-bit — the deep
/// small-map layers this describes are exactly the ones whose `oc·plen`
/// partial buffer would otherwise dominate planned workspace.
pub fn conv2d_dw_single_block(g: &Conv2dGeometry, n: usize) -> bool {
    n * g.patch_count() <= KernelPlan::reduction_kc()
}

/// Whether running a conv layer in micro-batches of `u` images (logical
/// batch `n`) preserves bit-identity with the full-batch kernels.
///
/// The weight-gradient reduction is blocked on `KC`-row boundaries of the
/// `n·oh·ow` patch-row dimension ([`conv2d_dw_tiled`],
/// [`matmul_at_b`](crate::matmul_at_b)). A micro-batch boundary that lands
/// inside a block would re-shape the fold tree, so `u` is legal exactly
/// when every `u`-image segment covers whole blocks (`u·oh·ow ≡ 0 mod
/// KC`) — or when there is only one segment (`u ≥ n`) — or when the whole
/// batch is one sequential fold ([`conv2d_dw_single_block`]), which any
/// boundary continues exactly.
pub fn micro_batch_aligned(g: &Conv2dGeometry, u: usize, n: usize) -> bool {
    u >= n
        || (u * g.patch_count()).is_multiple_of(KernelPlan::reduction_kc())
        || conv2d_dw_single_block(g, n)
}

/// The smallest bit-identity-preserving micro-batch size for a conv layer
/// at logical batch `n`: one image when the whole batch is a single
/// sequential fold ([`conv2d_dw_single_block`]), else `KC / gcd(oh·ow,
/// KC)` images (the shortest image run covering whole `KC` blocks), capped
/// at `n` when even that exceeds the batch — then the layer simply runs
/// un-chunked.
pub fn min_micro_batch(g: &Conv2dGeometry, n: usize) -> usize {
    if conv2d_dw_single_block(g, n) {
        return 1;
    }
    let kc = KernelPlan::reduction_kc();
    (kc / gcd(g.patch_count(), kc)).min(n.max(1))
}

/// Patch-row tile width under the plan's pack-panel budget, at least 1, at
/// most `cap`. The tile width only partitions independent output positions
/// (forward) or changes packing granularity (`dw`), never a fold order —
/// which is what makes `panel_bytes` a legal tuning knob.
fn tile_rows(panel_bytes: usize, plen: usize, cap: usize) -> usize {
    (panel_bytes / 4 / plen.max(1)).clamp(1, cap.max(1))
}

/// Parallel tasks (`KC` blocks × output-channel bands) one `dw` call aims
/// for (see [`dw_band_rows`]). Every band beyond the first repacks the
/// call's patch rows; on the 2-core reference host two tasks measured
/// faster than four or eight.
const DW_TASKS: usize = 2;

/// Output positions one `dx` tile reduces together into its scratch
/// panel, so the weights stream once per tile rather than once per
/// position. Tiles only group independent patch-row gradients.
const DX_TILE: usize = 32;

/// Packs the `im2col` row of output position `(b, oy, ox)` into `row`
/// (`[plen]`), writing **every** element — out-of-bounds taps store an
/// explicit 0.0, so a reused panel needs no per-tile clear. Values and
/// column order are exactly those of [`im2col`](crate::im2col).
#[inline]
fn pack_patch(
    src: &[f32],
    g: &Conv2dGeometry,
    b: usize,
    oy: usize,
    ox: usize,
    row: &mut [f32],
) {
    let (h, w) = (g.in_h, g.in_w);
    let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
    let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
    // Interior positions (the vast majority under small padding) copy each
    // kernel row as one contiguous run instead of per-element index math.
    let x_full = ix0 >= 0 && ix0 + g.kw as i64 <= w as i64;
    let mut q = 0;
    for c in 0..g.in_c {
        let cbase = (b * g.in_c + c) * h * w;
        for ky in 0..g.kh {
            let iy = iy0 + ky as i64;
            if iy < 0 || iy >= h as i64 {
                row[q..q + g.kw].fill(0.0);
                q += g.kw;
                continue;
            }
            let rbase = cbase + iy as usize * w;
            if x_full {
                let s = rbase + ix0 as usize;
                row[q..q + g.kw].copy_from_slice(&src[s..s + g.kw]);
                q += g.kw;
                continue;
            }
            for kx in 0..g.kw {
                let ix = ix0 + kx as i64;
                row[q] = if ix < 0 || ix >= w as i64 {
                    0.0
                } else {
                    src[rbase + ix as usize]
                };
                q += 1;
            }
        }
    }
}

fn check_weight(w: &Tensor, g: &Conv2dGeometry) -> usize {
    assert_eq!(w.rank(), 4, "conv weight must be [oc, ic, kh, kw]");
    assert_eq!(
        (w.dim(1), w.dim(2), w.dim(3)),
        (g.in_c, g.kh, g.kw),
        "weight {} does not match geometry {g:?}",
        w.shape()
    );
    w.dim(0)
}

fn check_input(x: &Tensor, g: &Conv2dGeometry) -> usize {
    assert_eq!(x.rank(), 4, "conv input must be NCHW");
    assert_eq!(
        (x.dim(1), x.dim(2), x.dim(3)),
        (g.in_c, g.in_h, g.in_w),
        "input {} does not match geometry {g:?}",
        x.shape()
    );
    x.dim(0)
}

/// Tiled implicit-GEMM convolution forward.
///
/// `x: [n, ic, h, w]` (already cropped if the layer had negative padding;
/// `g.pad` holds the non-negative remainder), `w: [oc, ic, kh, kw]`,
/// optional `bias: [oc]`. Writes `[n, oc, oh, ow]` into `out`, overwriting
/// every element — `out`'s contents on entry do not matter.
///
/// Bit-identical to `im2col` + `matmul_a_bt` + bias for any thread count
/// and any tile width: each element is one independent `dot8` + one add.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub fn conv2d_fwd_tiled(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let kp = plan::conv_fwd_plan(g, x.dim(0), w.dim(0));
    conv2d_fwd_tiled_plan(&kp, x, w, bias, g, out);
}

/// Plan-parameterized core of [`conv2d_fwd_tiled`] — the tuner times
/// candidate pack-panel budgets through this entry without touching the
/// global registry. Any plan produces the same bits (see [`tile_rows`]).
pub(crate) fn conv2d_fwd_tiled_plan(
    kp: &KernelPlan,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let n = check_input(x, g);
    let oc = check_weight(w, g);
    let plen = g.patch_len();
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(out.len(), n * oc * oh * ow, "conv2d_fwd_tiled out length");
    if let Some(b) = bias {
        assert_eq!(b.len(), oc, "conv bias length");
    }
    let src = x.as_slice();
    let wv = w.as_slice();
    let tile = tile_rows(kp.panel_bytes, plen, ow);
    let rows = n * oh;
    let rows_per_chunk = scnn_par::grain(rows, 2);
    let tasks = rows.div_ceil(rows_per_chunk.max(1)).max(1);
    let sink = DisjointMut::new(out);
    scnn_par::parallel_for(tasks, |t| {
        let r0 = t * rows_per_chunk;
        let r1 = ((t + 1) * rows_per_chunk).min(rows);
        scratch::with_scratch(tile * plen, |panel| {
            for r in r0..r1 {
                let (b, oy) = (r / oh, r % oh);
                for ox0 in (0..ow).step_by(tile) {
                    let tw = (ox0 + tile).min(ow) - ox0;
                    for ti in 0..tw {
                        pack_patch(src, g, b, oy, ox0 + ti, &mut panel[ti * plen..(ti + 1) * plen]);
                    }
                    // For channel c the tile's outputs are contiguous in
                    // ox; distinct (b, oy, c) rows never overlap, and the
                    // tasks partition (b, oy), so the ranges are disjoint.
                    let orow = |c: usize| {
                        let base = ((b * oc + c) * oh + oy) * ow + ox0;
                        unsafe { sink.range(base, base + tw) }
                    };
                    let mut c = 0;
                    while c + 8 <= oc {
                        let ws: [&[f32]; 8] = std::array::from_fn(|j| {
                            &wv[(c + j) * plen..(c + j + 1) * plen]
                        });
                        let adds: [f32; 8] = match bias {
                            Some(b) => std::array::from_fn(|j| b[c + j]),
                            None => [0.0; 8],
                        };
                        let os: [&mut [f32]; 8] = std::array::from_fn(|j| orow(c + j));
                        for ti in 0..tw {
                            let arow = &panel[ti * plen..(ti + 1) * plen];
                            let q = dot8_x8(arow, ws);
                            for j in 0..8 {
                                os[j][ti] = q[j] + adds[j];
                            }
                        }
                        c += 8;
                    }
                    while c + 4 <= oc {
                        let (w0, w1, w2, w3) = (
                            &wv[c * plen..(c + 1) * plen],
                            &wv[(c + 1) * plen..(c + 2) * plen],
                            &wv[(c + 2) * plen..(c + 3) * plen],
                            &wv[(c + 3) * plen..(c + 4) * plen],
                        );
                        let adds = match bias {
                            Some(b) => [b[c], b[c + 1], b[c + 2], b[c + 3]],
                            None => [0.0; 4],
                        };
                        let (o0, o1, o2, o3) = (orow(c), orow(c + 1), orow(c + 2), orow(c + 3));
                        for ti in 0..tw {
                            let arow = &panel[ti * plen..(ti + 1) * plen];
                            let q = dot8_x4(arow, w0, w1, w2, w3);
                            o0[ti] = q[0] + adds[0];
                            o1[ti] = q[1] + adds[1];
                            o2[ti] = q[2] + adds[2];
                            o3[ti] = q[3] + adds[3];
                        }
                        c += 4;
                    }
                    while c < oc {
                        let wrow = &wv[c * plen..(c + 1) * plen];
                        let add = bias.map_or(0.0, |b| b[c]);
                        let o = orow(c);
                        for ti in 0..tw {
                            o[ti] = dot8(&panel[ti * plen..(ti + 1) * plen], wrow) + add;
                        }
                        c += 1;
                    }
                }
            }
        });
    });
}

/// Tiled weight gradient: `dw = dyᵀ · cols` without materializing either
/// the transposed `dy` or the patch matrix.
///
/// Writes `[oc, plen]` into `dw`, overwriting every element. The shared
/// dimension `k = n·oh·ow` is split on the same `KC` boundaries as
/// [`matmul_at_b`](crate::matmul_at_b); each block, cut into
/// output-channel bands, packs patch-row panels into per-thread scratch,
/// accumulates its partial with `p` ascending (skipping zero `dy` factors,
/// as the GEMM does), and the flat partial buffer folds in ascending block
/// order — bit-identical to the materialized pipeline at every thread
/// count.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub fn conv2d_dw_tiled(x: &Tensor, dy: &Tensor, g: &Conv2dGeometry, dw: &mut [f32]) {
    let n = check_input(x, g);
    conv2d_dw_tiled_acc(x, dy, g, 0, n, dw, true);
}

/// Batch-range, continued-accumulation form of [`conv2d_dw_tiled`]: folds
/// the weight-gradient contribution of images `b0 .. b0 + bn` into `dw`.
/// With `init` the range's first partial block *overwrites* `dw` (use on
/// the first segment); without it every block folds in, continuing the
/// reduction of earlier segments.
///
/// Chaining aligned segments (see [`micro_batch_aligned`]) over the whole
/// batch replays the full-batch call's block grid and fold order exactly —
/// this is how micro-batched training keeps `dw` bit-identical while
/// shrinking the partials scratch from `⌈n·oh·ow/KC⌉` to `⌈bn·oh·ow/KC⌉`
/// blocks per call.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry or the range exceeds the
/// batch.
pub fn conv2d_dw_tiled_acc(
    x: &Tensor,
    dy: &Tensor,
    g: &Conv2dGeometry,
    b0: usize,
    bn: usize,
    dw: &mut [f32],
    init: bool,
) {
    let kp = plan::conv_bwd_plan(g, x.dim(0), dy.dim(1));
    conv2d_dw_tiled_acc_plan(&kp, x, dy, g, b0, bn, dw, init);
}

/// Plan-parameterized core of [`conv2d_dw_tiled_acc`] — the tuner times
/// candidate pack sub-tile budgets through this entry without touching the
/// global registry. The plan only sizes the pack panels; the `KC` block
/// grid and fold order come from [`KernelPlan::reduction_kc`], so any plan
/// produces the same bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_dw_tiled_acc_plan(
    kp: &KernelPlan,
    x: &Tensor,
    dy: &Tensor,
    g: &Conv2dGeometry,
    b0: usize,
    bn: usize,
    dw: &mut [f32],
    init: bool,
) {
    let n = check_input(x, g);
    assert!(bn > 0 && b0 + bn <= n, "image range {b0}+{bn} exceeds batch {n}");
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(dy.rank(), 4, "conv dy must be NCHW");
    let oc = dy.dim(1);
    assert_eq!(
        (dy.dim(0), dy.dim(2), dy.dim(3)),
        (n, oh, ow),
        "dy {} does not match geometry {g:?}",
        dy.shape()
    );
    let plen = g.patch_len();
    assert_eq!(dw.len(), oc * plen, "conv2d_dw_tiled out length");
    let src = x.as_slice();
    let dyv = dy.as_slice();
    let hw = oh * ow;
    let base = b0 * hw;
    let k = bn * hw;
    let kc = KernelPlan::reduction_kc();
    let st = tile_rows(kp.panel_bytes, plen, kc);
    let single = conv2d_dw_single_block(g, n);
    let nblocks = if single { 1 } else { k.div_ceil(kc).max(1) };
    let band = dw_band_rows(oc, nblocks);
    let nbands = oc.div_ceil(band);
    let chans = |bi: usize| bi * band..((bi + 1) * band).min(oc);
    if single {
        // The whole batch is one sequential fold: accumulate straight into
        // `dw` (zeroed on `init`), with no partial-block scratch. The add
        // sequence equals what the blocked path runs inside block 0, so
        // full-batch bits are unchanged — and any chunk boundary continues
        // the fold exactly, which is what unlocks micro-batching the deep
        // small-map layers whose `oc·plen` partials dominate workspace.
        if init {
            dw.fill(0.0);
        }
        let rows = DisjointMut::new(dw);
        scnn_par::parallel_for(nbands, |bi| {
            let cs = chans(bi);
            // Safety: band `bi` owns dw rows `cs`, disjoint across bands.
            let acc = unsafe { rows.range(cs.start * plen, cs.end * plen) };
            fold_patch_rows(src, dyv, g, oc, cs, st, base, base + k, acc);
        });
        return;
    }
    scratch::with_scratch(nblocks * oc * plen, |partials| {
        let slots = DisjointMut::new(partials);
        scnn_par::parallel_for(nblocks * nbands, |t| {
            let (bi, cs) = (t / nbands, chans(t % nbands));
            // Safety: task `t` alone writes rows `cs` of partial slot `bi`.
            let part =
                unsafe { slots.range((bi * oc + cs.start) * plen, (bi * oc + cs.end) * plen) };
            let p0 = base + bi * kc;
            let p1 = (p0 + kc).min(base + k);
            fold_patch_rows(src, dyv, g, oc, cs, st, p0, p1, part);
        });
        let start = if init {
            dw.copy_from_slice(&partials[..oc * plen]);
            1
        } else {
            0
        };
        for bi in start..nblocks {
            add_assign(dw, &partials[bi * oc * plen..(bi + 1) * oc * plen]);
        }
    });
}

/// Output-channel rows per `dw` band for a call spanning `nblocks` `KC`
/// blocks: enough bands that blocks × bands reaches [`DW_TASKS`], each at
/// least 16 rows and a multiple of [`MR`]. Bands are the reduction's
/// second axis of parallelism — under micro-batching every call is a
/// single block, which without bands would run on one core — but every
/// band packs its own patch panels, so no more are cut than that. A
/// function of the shape only: bands partition independent outputs, so
/// they carry no bits, and they never depend on the thread count.
fn dw_band_rows(oc: usize, nblocks: usize) -> usize {
    let bands = DW_TASKS.div_ceil(nblocks);
    oc.div_ceil(bands).next_multiple_of(MR).max(4 * MR)
}

/// Accumulates patch rows `[p0, p1)` of the weight-gradient reduction for
/// output channels `chans` into `acc` (`[chans.len()·plen]`): packs panels
/// of at most `st` patch rows, never crossing an image, and hands each to
/// [`rank_k_update`] with that image's `dy` plane read in place (`k`
/// stride 1, channel stride `oh·ow`). Every element's adds run strictly
/// `p`-ascending with the zero-skip on `dy` — the order shared by the
/// blocked partials and the single-block direct path; panels and bands
/// affect only packing, never the fold sequence.
#[allow(clippy::too_many_arguments)]
fn fold_patch_rows(
    src: &[f32],
    dyv: &[f32],
    g: &Conv2dGeometry,
    oc: usize,
    chans: Range<usize>,
    st: usize,
    p0: usize,
    p1: usize,
    acc: &mut [f32],
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let hw = oh * ow;
    let plen = g.patch_len();
    scratch::with_scratch(st * plen, |colpanel| {
        let mut q0 = p0;
        while q0 < p1 {
            let (b, r0) = (q0 / hw, q0 % hw);
            let q1 = (q0 + st).min(p1).min((b + 1) * hw);
            for (t, rem) in (r0..r0 + q1 - q0).enumerate() {
                let row = &mut colpanel[t * plen..(t + 1) * plen];
                pack_patch(src, g, b, rem / ow, rem % ow, row);
            }
            let s = RankK {
                rows: chans.len(),
                depth: q1 - q0,
                cols: plen,
                a_ks: 1,
                a_rs: hw,
                ldb: plen,
                ldc: plen,
            };
            rank_k_update(s, &dyv[(b * oc + chans.start) * hw + r0..], colpanel, acc);
            q0 = q1;
        }
    });
}

/// Tiled input gradient: fuses `matmul(dy_mat, w2)` with the `col2im`
/// scatter so the `dcols` matrix never exists.
///
/// Accumulates into `dst: [n, ic, full_h, full_w]` (zeroed by the caller),
/// with the geometry's `in_h × in_w` window placed at `(off_h, off_w)` —
/// the crop-offset contract of [`col2im_into`](crate::col2im_into). Per
/// image, a tile of up to [`DX_TILE`] consecutive output positions reduces
/// over output channels in one [`rank_k_update`] (`dy` read in place:
/// channel stride `oh·ow`, position stride 1) — per patch-row element the
/// channels add in ascending order with the zero-skip on the `dy` factor,
/// exactly as [`matmul`](crate::matmul) does. Each position then scatters
/// in `(oy, ox, ky, kx)` order. Parallel over whole batch images only, so
/// every destination element sees its contributions in the same order at
/// every thread count.
///
/// # Panics
///
/// Panics if shapes disagree or the offset window hangs outside `dst`.
pub fn conv2d_dx_tiled(
    dy: &Tensor,
    w: &Tensor,
    g: &Conv2dGeometry,
    dst: &mut Tensor,
    off_h: usize,
    off_w: usize,
) {
    let oc = check_weight(w, g);
    let (oh, ow) = (g.out_h(), g.out_w());
    let n = dy.dim(0);
    assert_eq!(
        dy.shape().dims(),
        &[n, oc, oh, ow],
        "dy does not match geometry {g:?}"
    );
    assert_eq!(dst.rank(), 4, "dx destination must be NCHW");
    assert_eq!(
        (dst.dim(0), dst.dim(1)),
        (n, g.in_c),
        "dx destination batch/channel mismatch"
    );
    let (full_h, full_w) = (dst.dim(2), dst.dim(3));
    assert!(
        off_h + g.in_h <= full_h && off_w + g.in_w <= full_w,
        "dx window {}x{} at offset ({off_h}, {off_w}) exceeds {full_h}x{full_w}",
        g.in_h,
        g.in_w
    );
    let plen = g.patch_len();
    let hw = oh * ow;
    let dyv = dy.as_slice();
    let wv = w.as_slice();
    let plane = full_h * full_w;
    let pt = DX_TILE.min(hw).max(1);
    scnn_par::par_chunks_mut(dst.as_mut_slice(), g.in_c * plane, |b, img| {
        scratch::with_scratch(pt * plen, |drows| {
            for t0 in (0..hw).step_by(pt) {
                let tp = pt.min(hw - t0);
                let drows = &mut drows[..tp * plen];
                drows.fill(0.0);
                let s = RankK {
                    rows: tp,
                    depth: oc,
                    cols: plen,
                    a_ks: hw,
                    a_rs: 1,
                    ldb: plen,
                    ldc: plen,
                };
                rank_k_update(s, &dyv[b * oc * hw + t0..], wv, drows);
                for (t, drow) in drows.chunks_exact(plen).enumerate() {
                    let pos = t0 + t;
                    scatter_patch(img, drow, g, pos / ow, pos % ow, full_w, off_h, off_w);
                }
            }
        });
    });
}

/// Adds the patch-row gradient of output position `(oy, ox)` into one
/// image `img` (`[ic, full_h, full_w]`) at window offset `(off_h, off_w)`,
/// in `(c, ky, kx)` order — the inverse of [`pack_patch`], and
/// [`col2im_into`](crate::col2im_into)'s per-position order. Each
/// destination element takes exactly one add.
#[allow(clippy::too_many_arguments)]
fn scatter_patch(
    img: &mut [f32],
    drow: &[f32],
    g: &Conv2dGeometry,
    oy: usize,
    ox: usize,
    full_w: usize,
    off_h: usize,
    off_w: usize,
) {
    // A compile-time kernel width turns each kernel-row add into a few
    // scalar adds instead of an `add_assign` call; ResNet and VGG use
    // width 3 for every tiled layer.
    match g.kw {
        3 => scatter_patch_kw::<3>(img, drow, g, oy, ox, full_w, off_h, off_w),
        _ => scatter_patch_kw::<0>(img, drow, g, oy, ox, full_w, off_h, off_w),
    }
}

/// Body of [`scatter_patch`] for kernel width `KW` (`0` = read `g.kw`).
/// The in-bounds kernel rows `ky_lo..ky_hi` and columns `kx_lo..kx_hi`
/// are worked out once per position, so the per-channel loop carries no
/// bounds tests beyond the slice checks.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scatter_patch_kw<const KW: usize>(
    img: &mut [f32],
    drow: &[f32],
    g: &Conv2dGeometry,
    oy: usize,
    ox: usize,
    full_w: usize,
    off_h: usize,
    off_w: usize,
) {
    let kw = if KW == 0 { g.kw } else { KW };
    let (h, w) = (g.in_h as i64, g.in_w as i64);
    let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
    let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
    let ky_lo = (-iy0).clamp(0, g.kh as i64);
    let ky_hi = (h - iy0).clamp(ky_lo, g.kh as i64);
    let kx_lo = (-ix0).clamp(0, kw as i64) as usize;
    let kx_hi = (w - ix0).clamp(kx_lo as i64, kw as i64) as usize;
    if kx_lo == kx_hi {
        return;
    }
    let (q0, q1) = (ky_lo as usize * kw, ky_hi as usize * kw);
    let plane = img.len() / g.in_c;
    let taps = drow.chunks_exact(g.kh * kw);
    for (chan, src) in img.chunks_exact_mut(plane).zip(taps) {
        for (ky, d) in (ky_lo..ky_hi).zip(src[q0..q1].chunks_exact(kw)) {
            // The window's first in-bounds tap of kernel row `ky`.
            let t0 = (iy0 + ky) as usize + off_h;
            let t0 = t0 * full_w + (ix0 + kx_lo as i64) as usize + off_w;
            let run = &mut chan[t0..t0 + (kx_hi - kx_lo)];
            for (o, &v) in run.iter_mut().zip(&d[kx_lo..kx_hi]) {
                *o += v;
            }
        }
    }
}

/// Planned workspace bytes for one tiled conv layer (forward + backward):
/// the thread-count-*independent* scratch footprint, i.e. the flat `dw`
/// partial buffer (`⌈n·oh·ow / KC⌉ · oc · plen` floats, `KC` =
/// [`KernelPlan::reduction_kc`] — the same accessor the kernels block on,
/// so the planner's model can never drift from the executed grid). A
/// tuned plan cannot change this number: plans carrying any other `kc`
/// are rejected at install. Per-thread pack panels are bounded by the
/// plan's `panel_bytes` each and scale with the host's thread count, so
/// the planner leaves them out of the per-layer term — this is the number
/// `scnn-hmms` carries per conv node in its layouts.
pub fn conv2d_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    let k = n * g.patch_count();
    k.div_ceil(KernelPlan::reduction_kc()).max(1) * oc * g.patch_len() * 4
}

/// Planned workspace bytes for one *materialized* conv layer at batch (or
/// micro-batch) `n`: the backward pass's scratch peak, where the `dy`
/// transpose (`n·oh·ow · oc`), the patch matrix (`n·oh·ow · plen`) and the
/// weight-gradient partials ([`conv2d_workspace_bytes`]) are live at once.
/// The forward peak (`cols` + the GEMM result) is strictly smaller. This
/// is the honest planning term for layers the selector keeps on the
/// `im2col` path — batch-proportional, which is exactly what the
/// micro-batch planning axis shrinks.
pub fn conv2d_materialized_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    let rows = n * g.patch_count();
    rows * (g.patch_len() + oc) * 4 + conv2d_workspace_bytes(g, n, oc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{im2col, matmul_a_bt, Padding2d};

    fn fill(dims: &[usize], seed: u32) -> Tensor {
        let len: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let data = (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    #[test]
    fn pack_patch_matches_im2col_rows() {
        let g = Conv2dGeometry::new(3, 5, 6, 3, 2, 2, 1, Padding2d::new(1, 0, 2, 1));
        let x = fill(&[2, 3, 5, 6], 9);
        let cols = im2col(&x, &g);
        let (oh, ow) = (g.out_h(), g.out_w());
        let plen = g.patch_len();
        let mut row = vec![9.9f32; plen]; // stale fill: pack must overwrite all
        for b in 0..2 {
            for oy in 0..oh {
                for ox in 0..ow {
                    pack_patch(x.as_slice(), &g, b, oy, ox, &mut row);
                    let p = (b * oh + oy) * ow + ox;
                    assert_eq!(
                        &cols.as_slice()[p * plen..(p + 1) * plen],
                        &row[..],
                        "patch ({b},{oy},{ox})"
                    );
                }
            }
        }
    }

    #[test]
    fn fwd_tiled_is_bitwise_equal_to_materialized_gemm() {
        // Non-divisible tile edges are exercised by tiny ow vs tile width;
        // the full cross-geometry sweep lives in scnn-nn's property tests.
        let g = Conv2dGeometry::new(2, 7, 9, 3, 3, 2, 1, Padding2d::new(1, 0, 0, 2));
        let x = fill(&[2, 2, 7, 9], 3);
        let w = fill(&[5, 2, 3, 3], 4);
        let bias = fill(&[5], 5);
        let (n, oc) = (2, 5);
        let (oh, ow) = (g.out_h(), g.out_w());

        let cols = im2col(&x, &g);
        let w2 = w.clone().reshape(&[oc, g.patch_len()]);
        let ymat = matmul_a_bt(&cols, &w2);

        let mut out = vec![7.7f32; n * oc * oh * ow];
        conv2d_fwd_tiled(&x, &w, Some(bias.as_slice()), &g, &mut out);
        for b in 0..n {
            for c in 0..oc {
                for p in 0..oh * ow {
                    let want = ymat.as_slice()[(b * oh * ow + p) * oc + c] + bias.as_slice()[c];
                    let got = out[(b * oc + c) * oh * ow + p];
                    assert_eq!(got.to_bits(), want.to_bits(), "at b={b} c={c} p={p}");
                }
            }
        }
    }

    #[test]
    fn workspace_bytes_counts_dw_partials() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 1, 1, Padding2d::symmetric(1));
        // k = 8·32·32 = 8192 → 32 KC-blocks of [oc=32, plen=144] partials.
        assert_eq!(conv2d_workspace_bytes(&g, 8, 32), 32 * 32 * 144 * 4);
    }
}
