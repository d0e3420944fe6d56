//! Property tests for the tiled implicit-GEMM convolution engine
//! (DESIGN.md §11): the tiled and materialized algorithms must agree
//! bit-for-bit on every geometry — stride, asymmetric and negative
//! padding, 1×1 kernels, tile-edge remainders — and the tiled path must
//! be thread-count invariant on its own. Bit-identity between the two
//! algorithms is what lets `SCNN_CONV_ALGO` switch engines without
//! perturbing seeded training goldens.

use scnn_nn::kernels::{
    conv2d_backward_micro, conv2d_backward_with, conv2d_forward_with, ConvAlgo, ConvAttrs,
};
use scnn_rng::prop::{check, Case};
use scnn_rng::Rng;
use scnn_tensor::{uniform, Padding2d, Tensor};

/// Bitwise comparison; returns a description of the first mismatch.
fn bits_match(what: &str, a: &Tensor, b: &Tensor) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("{what}: shape {} vs {}", a.shape(), b.shape()));
    }
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i} differs: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Runs `f` under each thread count; every returned tensor must match
/// the single-thread run bit-for-bit (same contract as
/// `parallel_props.rs`, here pinned on the forced-tiled path).
fn thread_sweep_invariant(threads: &[usize], f: impl Fn() -> Vec<Tensor>) -> Case {
    let reference = scnn_par::with_threads(threads[0], &f);
    for &t in &threads[1..] {
        let got = scnn_par::with_threads(t, &f);
        for (ti, (a, b)) in reference.iter().zip(&got).enumerate() {
            if let Err(e) = bits_match(&format!("tensor {ti} under {t} threads"), a, b) {
                return Case::Fail(e);
            }
        }
    }
    Case::Pass
}

/// A dense upstream gradient (`y + (i%7)·0.1`): its factors are
/// practically never zero, so the backward zero-skips do not fire.
fn dense_dy(y: &Tensor) -> Tensor {
    Tensor::from_vec(
        y.as_slice()
            .iter()
            .enumerate()
            .map(|(i, v)| v + (i % 7) as f32 * 0.1)
            .collect(),
        y.shape().dims(),
    )
}

/// A ReLU-masked upstream gradient: exact zeros where `y ≤ 0` (every
/// fifth of them `-0.0`), the dense value elsewhere — the sparsity the
/// backward reductions' zero-skip exists for.
fn relu_masked_dy(y: &Tensor) -> Tensor {
    let dense = dense_dy(y);
    Tensor::from_vec(
        y.as_slice()
            .iter()
            .zip(dense.as_slice())
            .enumerate()
            .map(|(i, (&v, &d))| match (v <= 0.0, i % 5 == 0) {
                (true, true) => -0.0,
                (true, false) => 0.0,
                (false, _) => d,
            })
            .collect(),
        y.shape().dims(),
    )
}

/// Runs forward + backward under both algorithms on the same inputs and
/// demands bit-identical `y`, `dx`, `dw`, `db`, for a dense and a
/// ReLU-masked `dy`. The tiled backward runs in micro-batches of `micro`
/// images (`0` = whole batch), the materialized one always whole-batch.
fn algos_agree(x: &Tensor, w: &Tensor, b: &Tensor, attrs: &ConvAttrs, micro: usize) -> Case {
    let y_t = conv2d_forward_with(x, w, Some(b), attrs, Some(ConvAlgo::Tiled));
    let y_m = conv2d_forward_with(x, w, Some(b), attrs, Some(ConvAlgo::Materialized));
    if let Err(e) = bits_match("y", &y_t, &y_m) {
        return Case::Fail(e);
    }
    for (kind, dy) in [
        ("dense", dense_dy(&y_t)),
        ("relu-masked", relu_masked_dy(&y_t)),
    ] {
        let g_t = conv2d_backward_micro(x, w, true, &dy, attrs, Some(ConvAlgo::Tiled), micro);
        let g_m = conv2d_backward_with(x, w, true, &dy, attrs, Some(ConvAlgo::Materialized));
        for (what, a, b) in [("dx", &g_t.dx, &g_m.dx), ("dw", &g_t.dw, &g_m.dw)] {
            if let Err(e) = bits_match(&format!("{what} ({kind} dy)"), a, b) {
                return Case::Fail(e);
            }
        }
        match (&g_t.db, &g_m.db) {
            (Some(a), Some(b)) => {
                if let Err(e) = bits_match(&format!("db ({kind} dy)"), a, b) {
                    return Case::Fail(e);
                }
            }
            _ => return Case::Fail("db missing from one algorithm".into()),
        }
    }
    Case::Pass
}

#[test]
fn tiled_matches_materialized_on_random_geometries() {
    check("tiled vs materialized conv", 16, |rng| {
        let n = rng.gen_range(1..3usize);
        let ic = rng.gen_range(1..5usize);
        let oc = rng.gen_range(1..14usize); // crosses octet/quad/single sweeps
        let h = rng.gen_range(5..13usize);
        let w = rng.gen_range(5..13usize);
        let kh = rng.gen_range(1..4usize);
        let kw = rng.gen_range(1..4usize);
        let sh = rng.gen_range(1..4usize);
        let sw = rng.gen_range(1..4usize);
        let pad = Padding2d::new(
            rng.gen_range(-1..3i64),
            rng.gen_range(-1..3i64),
            rng.gen_range(-1..3i64),
            rng.gen_range(-1..3i64),
        );
        let full_h = h as i64 + pad.h_begin + pad.h_end;
        let full_w = w as i64 + pad.w_begin + pad.w_end;
        if full_h < kh as i64 || full_w < kw as i64 {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        algos_agree(&x, &wt, &b, &attrs, 0)
    });
}

#[test]
fn tiled_matches_materialized_on_edge_geometries() {
    // Deterministic corners the random sweep may miss. The 64-channel
    // entry forces a non-divisible patch-tile edge: plen = 64·3·3 = 576
    // caps the pack panel at 113 rows under the 256 KB budget, and 144
    // output positions split into a full tile plus a 31-row remainder.
    // The last two reach the rank-k backward's edges: 8 images of 8×8 in
    // micro-batches of 4 make every call one whole KC block of 256 rows,
    // so its partial is cut into output-channel bands (16 + a 1-row tail
    // for oc = 17); and ic = 3 gives plen = 27, a 16 + 8 column strip
    // plus a masked 3-column tail.
    #[allow(clippy::type_complexity)] // a literal table, not an API
    let cases: &[(usize, usize, usize, usize, usize, (usize, usize), (usize, usize), Padding2d, usize)] = &[
        // (n, ic, oc, h, w, (kh, kw), (sh, sw), pad, micro)
        (2, 5, 9, 7, 9, (1, 1), (1, 1), Padding2d::default(), 0),
        (1, 3, 8, 9, 9, (1, 1), (2, 2), Padding2d::default(), 0),
        (2, 3, 13, 10, 11, (3, 3), (2, 3), Padding2d::new(2, 0, 0, 1), 0),
        (1, 4, 6, 8, 8, (2, 2), (1, 1), Padding2d::new(-1, 0, 0, -1), 0),
        (1, 2, 1, 6, 6, (3, 3), (1, 1), Padding2d::symmetric(1), 0),
        (1, 64, 9, 12, 12, (3, 3), (1, 1), Padding2d::symmetric(1), 0),
        (8, 4, 17, 8, 8, (3, 3), (1, 1), Padding2d::symmetric(1), 4),
        (2, 3, 8, 10, 10, (3, 3), (1, 1), Padding2d::symmetric(1), 0),
    ];
    let mut rng = scnn_rng::SplitRng::seed_from_u64(42);
    for &(n, ic, oc, h, w, (kh, kw), (sh, sw), pad, micro) in cases {
        let attrs = ConvAttrs { kh, kw, sh, sw, pad };
        let x = uniform(&mut rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(&mut rng, &[oc, ic, kh, kw], -0.7, 0.7);
        let b = uniform(&mut rng, &[oc], -0.2, 0.2);
        match algos_agree(&x, &wt, &b, &attrs, micro) {
            Case::Pass => {}
            Case::Fail(e) => panic!("case {n}x{ic}x{h}x{w} k{kh}x{kw} s{sh}x{sw}: {e}"),
            Case::Discard => unreachable!(),
        }
    }
}

#[test]
fn tiled_is_thread_count_invariant() {
    const THREADS: [usize; 4] = [1, 2, 4, 7];
    check("tiled conv thread-invariant", 10, |rng| {
        let n = rng.gen_range(1..3usize);
        let ic = rng.gen_range(1..5usize);
        let oc = rng.gen_range(1..11usize);
        let h = rng.gen_range(6..12usize);
        let w = rng.gen_range(6..12usize);
        let k = rng.gen_range(1..4usize);
        if h < k || w < k {
            return Case::Discard;
        }
        let attrs = ConvAttrs { kh: k, kw: k, sh: 1, sw: 1, pad: Padding2d::symmetric(1) };
        let x = uniform(rng, &[n, ic, h, w], -1.0, 1.0);
        let wt = uniform(rng, &[oc, ic, k, k], -0.7, 0.7);
        let b = uniform(rng, &[oc], -0.2, 0.2);
        thread_sweep_invariant(&THREADS, || {
            let y = conv2d_forward_with(&x, &wt, Some(&b), &attrs, Some(ConvAlgo::Tiled));
            let dy = Tensor::ones(y.shape().dims());
            let g = conv2d_backward_with(&x, &wt, true, &dy, &attrs, Some(ConvAlgo::Tiled));
            vec![y, g.dx, g.dw, g.db.expect("bias grad")]
        })
    });
}

#[test]
fn tiled_deep_layers_are_thread_count_invariant_under_micro_batching() {
    // The split ResNet-18 training step's deep layers at the micro-batch
    // sizes its plan picks: 8×128×8×8 at u = 4 (each call one whole KC
    // block) and 8×256×4×4 at u = 8 (the single-block path). These calls
    // parallelize only across output-channel bands, so this is where a
    // band-dependent reduction would show.
    const THREADS: [usize; 4] = [1, 2, 4, 7];
    let mut rng = scnn_rng::SplitRng::seed_from_u64(7);
    for (c, side, micro) in [(128, 8, 4), (256, 4, 8)] {
        let attrs = ConvAttrs {
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            pad: Padding2d::symmetric(1),
        };
        let x = uniform(&mut rng, &[8, c, side, side], -1.0, 1.0);
        let wt = uniform(&mut rng, &[c, c, 3, 3], -0.1, 0.1);
        let y = conv2d_forward_with(&x, &wt, None, &attrs, Some(ConvAlgo::Tiled));
        let dy = relu_masked_dy(&y);
        let case = thread_sweep_invariant(&THREADS, || {
            let g =
                conv2d_backward_micro(&x, &wt, false, &dy, &attrs, Some(ConvAlgo::Tiled), micro);
            vec![g.dx, g.dw]
        });
        if let Case::Fail(e) = case {
            panic!("8x{c}x{side}x{side} u={micro}: {e}");
        }
    }
}
