//! Cache-blocked GEMM kernel with packed B-panels.
//!
//! The summation-order contract (see `docs/performance.md`): for every
//! output element `out[i][j]`, products `a[i][p] * b[p][j]` are accumulated
//! in ascending-`p` order, and products whose `a[i][p]` compares equal to
//! `0.0` are skipped — exactly the order and skip rule of the original
//! streaming i-k-j kernel. Blocking only changes *which other* elements are
//! computed between two updates of the same element, never the sequence of
//! updates one element sees, so results are bit-identical to the naive
//! kernel for every shape (`tests/kernel_determinism.rs` pins this against
//! a frozen copy of the pre-blocking kernel).
//!
//! Blocking scheme:
//!
//! * `KC × NC` panels of `B` are packed contiguously into workspace scratch,
//!   sized to sit in L2 while the inner loops run out of L1 — a `B` no
//!   wider than `NC` already is its own panel and is used in place;
//! * rows of `A` are processed `MR` at a time against the packed panel,
//!   with an `MR × NR` block of `out` held in register accumulators across
//!   the panel depth, so each loaded `B` value feeds `MR` rows and each
//!   output value round-trips memory once per panel instead of once per
//!   `p`; columns past the last multiple of `NR` get 8-, 4- and 1-wide
//!   blocks of the same kind, rows past the last multiple of `MR` 2- and
//!   1-high ones;
//! * the zero-skip is applied only when the caller says it is observable,
//!   i.e. when `B` holds a NaN or an infinity (see [`gemm`]).

use crate::Workspace;

/// Rows of `A` processed per packed-panel sweep (the register tile height).
const MR: usize = 4;
/// Output columns held in register accumulators per micro-kernel call;
/// `MR × NR` floats must fit the vector register file.
pub(crate) const NR: usize = 16;
/// `k`-extent of a packed panel.
const KC: usize = 256;
/// `n`-extent of a packed panel. `KC × NC × 4` bytes = 1 MiB: half a
/// typical L2, leaving room for the `MR` output-row segments and `A` rows.
pub(crate) const NC: usize = 1024;

/// Whether no element of `v` is NaN or infinite (a branch-free scan).
pub(crate) fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(true, |finite, x| finite & x.is_finite())
}

/// Accumulates `out += A · B` for row-major `B (k×n)` and `out (m×n)`;
/// `A` is `m×k` row-major, or with `a_t` its `k×m` transpose, read in
/// place.
///
/// `out` must come in zeroed, and `skip` must be set unless `B` is
/// [`all_finite`]. With a finite `B` the zero-skip cannot be observed — a
/// skipped product would be exactly ±0.0, and adding that leaves a sum
/// that started at +0.0 unchanged bit for bit (round-to-nearest never
/// reaches −0.0 except from −0.0 + −0.0) — so the kernel multiplies
/// through zeros instead of branching on them. All scratch comes from
/// `ws`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    a: &[f32],
    a_t: bool,
    b: &[f32],
    skip: bool,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(skip || all_finite(b));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let avx = avx_available();
    let (a_rs, a_cs) = if a_t { (1, m) } else { (k, 1) };
    let mut packed = if n > NC { ws.take(KC.min(k) * NC) } else { Vec::new() };
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack B[pc..pc+kc, jc..jc+nc] row-contiguously, unless B is
            // a single panel wide and those rows already are.
            let panel = if nc == n {
                &b[pc * n..(pc + kc) * n]
            } else {
                for pi in 0..kc {
                    let src = (pc + pi) * n + jc;
                    packed[pi * nc..(pi + 1) * nc].copy_from_slice(&b[src..src + nc]);
                }
                &packed[..kc * nc]
            };
            let at = Panel { a_rs, a_cs, n, jc, nc, pc, kc };
            let mut i = 0;
            while i + MR <= m {
                tile::<MR>(avx, skip, a, panel, out, at, i);
                i += MR;
            }
            // Tail rows (m not a multiple of MR): two, then one.
            if i + 2 <= m {
                tile::<2>(avx, skip, a, panel, out, at, i);
                i += 2;
            }
            if i < m {
                tile::<1>(avx, skip, a, panel, out, at, i);
            }
        }
    }
    ws.give(packed);
}

/// Where one packed panel sits in the product: `A` columns `pc..pc+kc`
/// (element `(i, p)` at `a[i·a_rs + p·a_cs]`) against `out` columns
/// `jc..jc+nc` of `n`, the panel holding `nc` values a row.
#[derive(Clone, Copy)]
struct Panel {
    a_rs: usize,
    a_cs: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
}

/// Accumulates `out` rows `i..i+R` against the panel, through the AVX
/// build of [`tile_body`] when `avx` is set.
///
/// The operands stay parameters of their own all the way down: bundled
/// behind a reference with the geometry, LLVM no longer sees that they
/// cannot alias `out`, and spills the accumulators.
#[inline]
fn tile<const R: usize>(
    avx: bool,
    skip: bool,
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    at: Panel,
    i: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` comes from `avx_available`, a runtime check.
        unsafe {
            if skip {
                tile_avx::<R, true>(a, panel, out, at, i);
            } else {
                tile_avx::<R, false>(a, panel, out, at, i);
            }
        }
        return;
    }
    let _ = avx;
    if skip {
        tile_body::<R, true>(a, panel, out, at, i);
    } else {
        tile_body::<R, false>(a, panel, out, at, i);
    }
}

/// [`tile_body`] compiled with AVX enabled so the accumulator loops
/// autovectorize 8-wide. Only `avx` is enabled — never `fma` — so LLVM
/// emits separate IEEE multiplies and adds and results stay bit-identical
/// to the scalar path.
///
/// # Safety
///
/// The CPU must support AVX (checked by [`avx_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tile_avx<const R: usize, const SKIP: bool>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    at: Panel,
    i: usize,
) {
    tile_body::<R, SKIP>(a, panel, out, at, i);
}

/// Whether the running CPU supports AVX (always false off x86-64).
pub(crate) fn avx_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The register-tile body: covers the panel's columns with blocks `NR`,
/// 8, 4 and 1 wide, widest first, so a narrow `out` (or the tail of a wide
/// one) still runs out of register accumulators.
#[inline(always)]
fn tile_body<const R: usize, const SKIP: bool>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    at: Panel,
    i: usize,
) {
    let mut jr = 0;
    while jr + NR <= at.nc {
        micro::<R, NR, SKIP>(a, panel, out, at, i, jr);
        jr += NR;
    }
    if jr + 8 <= at.nc {
        micro::<R, 8, SKIP>(a, panel, out, at, i, jr);
        jr += 8;
    }
    if jr + 4 <= at.nc {
        micro::<R, 4, SKIP>(a, panel, out, at, i, jr);
        jr += 4;
    }
    while jr < at.nc {
        micro::<R, 1, SKIP>(a, panel, out, at, i, jr);
        jr += 1;
    }
}

/// The micro-kernel: holds the `R × W` block of `out` at rows `i..`, panel
/// columns `jr..` in register accumulators across the whole panel depth,
/// so each output value is loaded and stored once per panel instead of
/// once per `p`. For a fixed element that changes nothing observable: its
/// partial sums still arrive in ascending-`p` order, and under `SKIP` a
/// row whose `A` element is ±0.0 skips its multiply-add for that `p`,
/// reproducing the streaming kernel's zero-skip rule bit-for-bit.
#[inline(always)]
fn micro<const R: usize, const W: usize, const SKIP: bool>(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    Panel { a_rs, a_cs, n, jc, nc, pc, kc }: Panel,
    i: usize,
    jr: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[(i + r) * n + jc + jr..][..W]);
    }
    for pi in 0..kc {
        let bseg = &panel[pi * nc + jr..][..W];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[(i + r) * a_rs + (pc + pi) * a_cs];
            if SKIP && av == 0.0 {
                continue;
            }
            for (ov, &bv) in acc_row.iter_mut().zip(bseg) {
                *ov += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + jc + jr..][..W].copy_from_slice(acc_row);
    }
}

/// Writes `src`ᵀ into `dst` for row-major `src (rows×cols)`;
/// `dst` receives the `cols×rows` transpose. Scratch-friendly transpose
/// for the right-hand operands of `matmul_nt` and the `cols · Wᵀ`
/// convolution lowering.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for i in 0..rows {
        for (j, &v) in src[i * cols..(i + 1) * cols].iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frozen copy of the pre-blocking streaming i-k-j kernel: the
    /// reference for the bit-identity contract.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            }
        }
        out
    }

    fn pattern(len: usize, sparsity: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if sparsity > 0 && i % sparsity == 0 {
                    0.0
                } else {
                    ((i * 2_654_435_761 % 1000) as f32 - 500.0) / 250.0
                }
            })
            .collect()
    }

    #[test]
    fn blocked_matches_reference_bitwise_across_shapes() {
        let mut ws = Workspace::new();
        // Shapes straddling every blocking edge: tiny, tails in each of
        // m/k/n, exact multiples, and zero-heavy inputs; each with the
        // zero-skip on and (B being finite) off, and A read transposed.
        for &(m, k, n, sparsity) in &[
            (1, 1, 1, 0),
            (3, 7, 5, 0),
            (4, 256, 1024, 0),
            (5, 257, 1025, 3),
            (33, 300, 130, 4),
            (64, 512, 48, 0),
            (17, 513, 2048, 7),
            (14, 300, 1100, 0),
            (15, 257, 1025, 3),
        ] {
            let a = pattern(m * k, sparsity);
            let b = pattern(k * n, 0);
            let want = reference(&a, &b, m, k, n);
            let mut a_t = vec![0.0f32; m * k];
            transpose_into(&a, &mut a_t, m, k);
            for (lhs, transposed, skip) in
                [(&a, false, true), (&a, false, false), (&a_t, true, true), (&a_t, true, false)]
            {
                let mut got = vec![0.0f32; m * n];
                gemm(lhs, transposed, &b, skip, &mut got, m, k, n, &mut ws);
                assert!(
                    want.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "bit mismatch at {m}x{k}x{n} sparsity {sparsity} a_t {transposed} skip {skip}"
                );
            }
        }
    }

    #[test]
    fn transpose_into_round_trips() {
        let src: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let mut t = vec![0.0f32; 6];
        transpose_into(&src, &mut t, 2, 3);
        assert_eq!(t, &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let mut back = vec![0.0f32; 6];
        transpose_into(&t, &mut back, 3, 2);
        assert_eq!(back, src);
    }
}
