//! SIMD dispatch property suite (DESIGN.md §14): the scalar and AVX2
//! micro-kernel bodies must produce **bitwise identical** results for
//! every GEMM variant and the tiled conv engine, across awkward
//! geometries and thread counts — the contract that makes the ISA choice
//! (and the `SCNN_SIMD` knob) a pure performance decision.
//!
//! On a host without AVX2+FMA the comparisons degenerate to scalar vs
//! scalar (still exercising the dispatch plumbing); the AVX2 bodies
//! themselves are covered wherever CI has the ISA. The suite also proves
//! that installed `KernelPlan`s — which may only vary bit-free blocking —
//! cannot change any output bit.

use scnn_tensor::simd::{rank_k_update, RankK};
use scnn_tensor::{
    conv2d_dw_tiled, conv2d_dx_tiled, conv2d_fwd_tiled, detected_level, force_level, install_plan,
    matmul_a_bt_into, matmul_at_b_acc_into, matmul_at_b_seq_into, matmul_into, Conv2dGeometry,
    KernelPlan, Padding2d, PlanOp, PlanRecord, SimdLevel, Tensor,
};

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

/// Runs `f` under forced scalar and (when the host has it) forced AVX2,
/// at `SCNN_THREADS` 1 and 4, and asserts every result's bits agree with
/// the scalar single-thread reference. Restores auto dispatch afterwards.
fn assert_bit_identical_across_levels_and_threads(label: &str, f: impl Fn() -> Vec<f32>) {
    force_level(Some(SimdLevel::Scalar));
    let reference: Vec<u32> = scnn_par::with_threads(1, &f)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut levels = vec![SimdLevel::Scalar];
    if detected_level() == SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    for level in levels {
        force_level(Some(level));
        for threads in [1usize, 4] {
            let got: Vec<u32> = scnn_par::with_threads(threads, &f)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                got,
                reference,
                "{label}: {} @ {threads} threads differs from scalar @ 1 thread",
                level.name()
            );
        }
    }
    force_level(None);
}

#[test]
fn gemm_variants_are_bit_identical_across_isa_and_threads() {
    // Shapes straddle the KC/NC/lane boundaries: tails in every position,
    // the octet/quad/single sweeps, multi-KC-block reductions.
    for &(m, k, n) in &[(1, 1, 1), (3, 9, 5), (17, 300, 33), (40, 257, 130)] {
        let a = fill(&[m, k], (m * 1000 + k) as u32);
        let b = fill(&[k, n], (k * 1000 + n) as u32);
        let akm = fill(&[k, m], (m + n) as u32);
        let bnk = fill(&[n, k], (n * 7 + k) as u32);

        assert_bit_identical_across_levels_and_threads(&format!("matmul {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("at_b {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_at_b_acc_into(akm.as_slice(), b.as_slice(), k, m, n, &mut out, true);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("at_b_seq {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_at_b_seq_into(akm.as_slice(), b.as_slice(), k, m, n, &mut out, true);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("a_bt {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_a_bt_into(a.as_slice(), bnk.as_slice(), m, k, n, &mut out);
            out
        });
    }
}

/// Stride / asymmetric padding / 1×1 / tile-edge geometries, with channel
/// counts exercising the octet, quad and single output-channel sweeps.
fn conv_geometries() -> Vec<(Conv2dGeometry, usize, usize)> {
    vec![
        // strided, asymmetric padding, 5 output channels (quad + single)
        (
            Conv2dGeometry::new(2, 7, 9, 3, 3, 2, 1, Padding2d::new(1, 0, 0, 2)),
            2,
            5,
        ),
        // 1x1 kernel (pure-reshape im2col), 9 channels (octet + single)
        (
            Conv2dGeometry::new(3, 6, 5, 1, 1, 1, 1, Padding2d::symmetric(0)),
            2,
            9,
        ),
        // wide row so the pack tile splits mid-row (tile-edge), 8 channels
        (
            Conv2dGeometry::new(4, 5, 33, 3, 2, 1, 2, Padding2d::new(0, 1, 1, 0)),
            3,
            8,
        ),
        // tall stride-3 with crop-shaped padding, 3 channels
        (
            Conv2dGeometry::new(2, 11, 4, 2, 2, 3, 1, Padding2d::new(0, 0, 1, 1)),
            2,
            3,
        ),
    ]
}

#[test]
fn tiled_conv_engine_is_bit_identical_across_isa_and_threads() {
    for (gi, (g, n, oc)) in conv_geometries().into_iter().enumerate() {
        let x = fill(&[n, g.in_c, g.in_h, g.in_w], 31 + gi as u32);
        let w = fill(&[oc, g.in_c, g.kh, g.kw], 47 + gi as u32);
        let bias = fill(&[oc], 53 + gi as u32);
        let (oh, ow) = (g.out_h(), g.out_w());
        let dy = fill(&[n, oc, oh, ow], 59 + gi as u32);

        assert_bit_identical_across_levels_and_threads(&format!("conv fwd g{gi}"), || {
            let mut out = vec![0.0f32; n * oc * oh * ow];
            conv2d_fwd_tiled(&x, &w, Some(bias.as_slice()), &g, &mut out);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("conv dw g{gi}"), || {
            let mut dw = vec![0.0f32; oc * g.patch_len()];
            conv2d_dw_tiled(&x, &dy, &g, &mut dw);
            dw
        });
        assert_bit_identical_across_levels_and_threads(&format!("conv dx g{gi}"), || {
            let mut dst = Tensor::zeros(&[n, g.in_c, g.in_h, g.in_w]);
            conv2d_dx_tiled(&dy, &w, &g, &mut dst, 0, 0);
            dst.as_slice().to_vec()
        });
    }
}

#[test]
fn installed_plans_change_no_bits() {
    // Tuned plans may only vary bit-free blocking, so running a shape
    // with an aggressive non-default plan installed must reproduce the
    // default-plan bits exactly. The shape is deliberately odd so no other
    // test's lookups collide with the installed keys.
    let (m, k, n) = (21, 310, 67);
    let a = fill(&[m, k], 71);
    let b = fill(&[k, n], 73);
    let run_matmul = || {
        let mut out = vec![0.0f32; m * n];
        matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
        out
    };
    let g = Conv2dGeometry::new(3, 13, 21, 3, 3, 1, 1, Padding2d::symmetric(1));
    let (cn, oc) = (2, 6);
    let x = fill(&[cn, g.in_c, g.in_h, g.in_w], 79);
    let w = fill(&[oc, g.in_c, g.kh, g.kw], 83);
    let dy = fill(&[cn, oc, g.out_h(), g.out_w()], 89);
    let run_conv = || {
        let mut out = vec![0.0f32; cn * oc * g.patch_count()];
        conv2d_fwd_tiled(&x, &w, None, &g, &mut out);
        let mut dw = vec![0.0f32; oc * g.patch_len()];
        conv2d_dw_tiled(&x, &dy, &g, &mut dw);
        out.extend(dw);
        out
    };

    let before_matmul = run_matmul();
    let before_conv = run_conv();

    let plan = KernelPlan {
        kc: KernelPlan::reduction_kc(),
        nc: 48,
        panel_bytes: 16 * 1024,
    };
    let isa = scnn_tensor::active_level();
    let threads = scnn_par::max_threads();
    let conv_dims = vec![cn, g.in_c, g.out_h(), g.out_w(), oc, g.kh, g.kw, g.sh, g.sw];
    for (op, dims) in [
        (PlanOp::Matmul, vec![m, k, n]),
        (PlanOp::ConvFwd, conv_dims.clone()),
        (PlanOp::ConvBwd, conv_dims),
    ] {
        install_plan(&PlanRecord {
            op,
            dims,
            isa,
            threads,
            plan,
            median_ns: 1,
        })
        .unwrap();
    }

    let after_matmul = run_matmul();
    let after_conv = run_conv();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&before_matmul), bits(&after_matmul), "matmul");
    assert_eq!(bits(&before_conv), bits(&after_conv), "conv");
}

/// `A` operand layouts of the two conv reductions: `dw` walks `k` with
/// stride 1 and rows with a large stride; `dx` the other way round.
#[derive(Clone, Copy, Debug)]
enum ALayout {
    Dw,
    Dx,
}

/// Builds one `rank_k_update` case: `A` with exact `±0.0` (skipped),
/// `NaN` (never skipped) and `±inf` entries, `B` with no zeros (so no
/// `inf·0` NaN mixes payloads with `A`'s `NaN`s), and `C` seeded with
/// `-0.0` wherever a fully skipped chain must leave its sign alone.
fn rank_k_case(
    mr: usize,
    nc: usize,
    depth: usize,
    layout: ALayout,
) -> (RankK, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (a_ks, a_rs) = match layout {
        ALayout::Dw => (1, depth + 3),
        ALayout::Dx => (mr + 2, 1),
    };
    let s = RankK {
        rows: mr,
        depth,
        cols: nc,
        a_ks,
        a_rs,
        ldb: nc + 5,
        ldc: nc + 2,
    };
    let seed = (mr * 1000 + nc * 10 + depth) as u32;
    let mut a = fill(&[(depth - 1) * a_ks + (mr - 1) * a_rs + 1], seed)
        .as_slice()
        .to_vec();
    for k in 0..depth {
        for r in 0..mr {
            let v = &mut a[k * a_ks + r * a_rs];
            // Row kinds rotate with `mr` so every row count sees each kind:
            // 0 = every term skipped, 1 = NaNs, 2 = infinities, 3 = plain;
            // all but kind 0 also hold some `±0.0`.
            *v = match ((r + mr) % 4, (k * 7 + r * 3) % 11) {
                (0, t) => {
                    if t % 2 == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                }
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                (1, 2) => f32::NAN,
                (2, 3) => f32::INFINITY,
                (2, 4) => f32::NEG_INFINITY,
                _ => *v,
            };
        }
    }
    let b: Vec<f32> = fill(&[depth * s.ldb], seed + 1)
        .as_slice()
        .iter()
        .map(|&v| if v == 0.0 { 0.25 } else { v })
        .collect();
    let c: Vec<f32> = fill(&[mr * s.ldc], seed + 2)
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 3 == 0 { -0.0 } else { v })
        .collect();
    (s, a, b, c)
}

#[test]
fn rank_k_update_matches_sequential_zero_skipping_axpy() {
    for layout in [ALayout::Dw, ALayout::Dx] {
        for depth in [1, 3, 256] {
            for mr in 1..=9 {
                for nc in [1, 7, 8, 9, 15, 16, 17, 40] {
                    let (s, a, b, c0) = rank_k_case(mr, nc, depth, layout);
                    // The oracle: for each k ascending, one zero-skipping
                    // axpy of B's row k into every C row.
                    let mut want = c0.clone();
                    for k in 0..depth {
                        for r in 0..mr {
                            let av = a[k * s.a_ks + r * s.a_rs];
                            if av == 0.0 {
                                continue;
                            }
                            let crow = &mut want[r * s.ldc..r * s.ldc + nc];
                            for (o, &x) in crow.iter_mut().zip(&b[k * s.ldb..]) {
                                *o += av * x;
                            }
                        }
                    }
                    let label = format!("rank_k {layout:?} mr={mr} nc={nc} k={depth}");
                    let run = || {
                        let mut c = c0.clone();
                        rank_k_update(s, &a, &b, &mut c);
                        c
                    };
                    let got: Vec<u32> = run().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{label}: differs from the axpy oracle");
                    assert_bit_identical_across_levels_and_threads(&label, run);
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "out of bounds")]
fn rank_k_update_rejects_a_short_operand() {
    let s = RankK {
        rows: 2,
        depth: 3,
        cols: 4,
        a_ks: 1,
        a_rs: 3,
        ldb: 4,
        ldc: 4,
    };
    // A needs (3-1)·1 + (2-1)·3 + 1 = 6 elements.
    rank_k_update(s, &[1.0; 5], &[1.0; 12], &mut [0.0; 8]);
}
