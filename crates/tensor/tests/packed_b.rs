//! Property tests for the weight-stationary operand: [`Gemm::compute_packed`]
//! over a [`PackedB`] must be bit-identical to [`Gemm::compute`] on the
//! unpacked operand with the same blocking, and a `PackedB` packed under
//! one blocking must be refused by an engine of another.

use latte_tensor::gemm::{Gemm, PackError, PackedB, Transpose, MR, NR};
use proptest::prelude::*;

/// The autotuner's `(kc, nc, mc)` blocking candidates (`kc` pinned at the
/// engine default), plus small blockings that put edge blocks in every
/// dimension.
const BLOCKINGS: [(usize, usize, usize); 8] = [
    (256, 512, 64),
    (256, 256, 32),
    (256, 512, 128),
    (256, 1024, 64),
    (256, 256, 128),
    (7, 16, 4),
    (32, 48, 8),
    (64, 32, 12),
];

fn transpose() -> impl Strategy<Value = Transpose> {
    prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
}

fn fill(len: usize, seed: u32, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(seed)
                .wrapping_add(salt);
            ((h % 1009) as f32 - 504.0) / 97.0
        })
        .collect()
}

fn packed_vs_unpacked(
    blocking: (usize, usize, usize),
    ta: Transpose,
    tb: Transpose,
    (m, n, k): (usize, usize, usize),
    seed: u32,
) -> Result<(), TestCaseError> {
    let (kc, nc, mc) = blocking;
    let a = fill(m * k, seed, 1);
    let b = fill(k * n, seed, 2);
    let mut c_ref = fill(m * n, seed, 3);
    let mut c_packed = c_ref.clone();
    let mut eng = Gemm::with_blocking(kc, nc, mc).expect("aligned blocking");
    eng.compute(ta, tb, m, n, k, &a, &b, &mut c_ref);
    let mut pb = PackedB::default();
    eng.pack_b(tb, k, n, &b, &mut pb);
    prop_assert_eq!(pb.dims(), (k, n));
    eng.compute_packed(ta, m, &a, &pb, &mut c_packed)
        .expect("same blocking");
    for (i, (x, y)) in c_ref.iter().zip(&c_packed).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "elem {}: {} vs {}", i, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes off the narrow path: `m` below and above `MR`, `n`
    /// rarely a multiple of `NR`, `k` up past the smallest `kc`, both
    /// transposes, every blocking in [`BLOCKINGS`].
    #[test]
    fn packed_is_bit_identical_to_per_call_packing(
        m in 1usize..3 * MR + 3,
        n in 1usize..4 * NR + 7,
        k in 1usize..90,
        ta in transpose(),
        tb in transpose(),
        bi in 0usize..BLOCKINGS.len(),
        seed in 0u32..1000,
    ) {
        // The narrow row path reads B unpacked; only A transposed reaches
        // the tiled kernel at n <= 32.
        prop_assume!(Gemm::packs_b(ta, n));
        packed_vs_unpacked(BLOCKINGS[bi], ta, tb, (m, n, k), seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `k` past the default `kc = 256` and `n` past `nc`: several k and
    /// column blocks per call, at the tuner's blockings.
    #[test]
    fn packed_spans_several_k_and_column_blocks(
        m in 1usize..9,
        n in 33usize..300,
        k in 257usize..700,
        tb in transpose(),
        bi in 0usize..5,
        seed in 0u32..1000,
    ) {
        packed_vs_unpacked(BLOCKINGS[bi], Transpose::No, tb, (m, n, k), seed)?;
    }
}

/// The small-`m` conv shapes the stationary path exists for: VGG-A's
/// conv5 forward (`op(B) = Wᵀ`), a wider tile, and backward-data.
#[test]
fn vgg_small_m_conv_shapes_are_bit_identical() {
    for (m, n, k, tb) in [
        (2, 128, 1152, Transpose::Yes),
        (8, 128, 1152, Transpose::Yes),
        (2, 1152, 128, Transpose::No),
    ] {
        for &blocking in &BLOCKINGS[..5] {
            packed_vs_unpacked(blocking, Transpose::No, tb, (m, n, k), 7).unwrap();
        }
    }
}

#[test]
fn blocking_mismatch_is_rejected_and_c_untouched() {
    let (m, n, k) = (4, 64, 300);
    let a = fill(m * k, 1, 1);
    let b = fill(k * n, 1, 2);
    let packer = Gemm::with_blocking(256, 512, 64).expect("aligned");
    let mut pb = PackedB::default();
    packer.pack_b(Transpose::Yes, k, n, &b, &mut pb);
    let mut c = vec![1.5f32; m * n];
    for (kc, nc, mc) in [(128, 512, 64), (256, 256, 64)] {
        let mut other = Gemm::with_blocking(kc, nc, mc).expect("aligned");
        assert_eq!(
            other.compute_packed(Transpose::No, m, &a, &pb, &mut c),
            Err(PackError::Blocking {
                packed: (256, 512),
                engine: (kc, nc)
            })
        );
    }
    // mc does not shape B panels: an engine differing only in mc reads it.
    let mut same_b = Gemm::with_blocking(256, 512, 32).expect("aligned");
    assert!(same_b
        .compute_packed(Transpose::No, m, &a, &pb, &mut vec![0.0; m * n])
        .is_ok());
    assert!(
        c.iter().all(|&v| v == 1.5),
        "a refused call must not write C"
    );
}

#[test]
fn narrow_shape_is_rejected() {
    let (m, n, k) = (3, 16, 20);
    let eng = Gemm::new();
    let mut pb = PackedB::default();
    eng.pack_b(Transpose::No, k, n, &fill(k * n, 2, 2), &mut pb);
    let mut c = vec![0.0f32; m * n];
    assert_eq!(
        Gemm::new().compute_packed(Transpose::No, m, &fill(m * k, 2, 1), &pb, &mut c),
        Err(PackError::Narrow { n })
    );
}

#[test]
fn repacking_reuses_capacity() {
    let cap = PackedB::len_for(300, 100);
    let mut pb = PackedB::with_capacity(cap);
    let eng = Gemm::new();
    eng.pack_b(Transpose::No, 300, 100, &fill(300 * 100, 3, 2), &mut pb);
    eng.pack_b(Transpose::Yes, 50, 40, &fill(50 * 40, 3, 2), &mut pb);
    assert_eq!(pb.capacity(), cap, "a smaller repack must not reallocate");
    assert_eq!(pb.dims(), (50, 40));
}
