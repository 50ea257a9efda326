//! `tanh` and `sigmoid` as branch-free lanes, bit-equal to glibc 2.36.
//!
//! The LSTM cell spends most of its forward in libm: three sigmoids and two
//! `tanh`s per hidden unit and step, each a call that cannot vectorise. The
//! functions here compute the same bits with no branch and no call, so a
//! loop over a gate block vectorises:
//!
//! * [`tanh`] transcribes glibc's `tanhf` (fdlibm `s_tanhf.c`) and the
//!   `expm1f` it calls (`s_expm1f.c`), every operation in `f32` and unfused
//!   as glibc compiles them;
//! * [`sigmoid`] is `1 / (1 + expf(-x))` with glibc's `expf` (`e_expf.c`,
//!   table `e_exp2f_data.c`) as the x86-64 FMA build runs it: the five
//!   `mul_add`s below are the products that compiler contracts. Unfused,
//!   `expf` differs from it on two of the 2^32 inputs (`0xc27c65d9`,
//!   `0x4202422f`), though the sigmoid rounds both alike.
//!
//! Each lane computes every branch's candidate and selects, so the result
//! of a branch a given input does not take is never observed. The LSTM's
//! numbers no longer depend on the libm a host links: on any host they are
//! glibc's. Off x86-64 `f64::mul_add` is a fused instruction; on an x86-64
//! CPU without FMA it is libm's exact software `fma` — slow, same bits.
//!
//! A loop over the lanes is built three ways, and runs the widest the CPU
//! has ([`isa`]): portable, `avx2,fma`, and `avx512f` on top. The tests
//! hold every build to a branchy scalar transcription of the three glibc
//! files, class by class and on random bits; an ignored sweep holds them to
//! this host's libm on all 2^32 inputs.

// s_tanhf.c
/// 2^-55: below it `tanh(x) = x·(1 + x)`.
const TANH_TINY: u32 = 0x2400_0000;
/// 1.0: from it on `tanh` goes through `expm1(2|x|)`, below through
/// `expm1(−2|x|)`.
const TANH_ONE: u32 = 0x3f80_0000;
/// 22.0: from it on `tanh(x) = ±(1 − 10^-30) = ±1`.
const TANH_SAT: u32 = 0x41b0_0000;

// s_expm1f.c
/// 2^-25: below it `expm1(x) = x`.
const EXPM1_TINY: u32 = 0x3300_0000;
/// 0.5·ln 2: up to it no argument reduction (`k = 0`).
const HALF_LN2: u32 = 0x3eb1_7218;
/// 1.5·ln 2: below it `k = ±1`.
const THREE_HALVES_LN2: u32 = 0x3f85_1592;
/// 27·ln 2: from it on a negative `x` gives −1.
const EXPM1_NEG_SAT: u32 = 0x4195_b844;
/// 88.72…: from it on a positive `x` overflows.
const EXPM1_OFLOW: u32 = 0x42b1_7218;
const LN2_HI: u32 = 0x3f31_7180;
const LN2_LO: u32 = 0x3717_f7d1;
const INVLN2: u32 = 0x3fb8_aa3b;
const Q1: u32 = 0xbd08_8889;
const Q2: u32 = 0x3ad0_0d01;
const Q3: u32 = 0xb8a6_70cd;
const Q4: u32 = 0x3686_7e54;
const Q5: u32 = 0xb457_edbb;

// e_expf.c
/// `top12(∞)`.
const EXP_TOP_INF: u32 = 0x7f8;
/// `0x1.62e42ep6`, log(2^128): above it `expf` overflows.
const EXP_OFLOW: u32 = 0x42b1_7217;
/// `-0x1.9fe368p6`, log(2^-150): below it `expf` underflows to zero.
const EXP_UFLOW: u32 = 0xc2cf_f1b4;
// e_exp2f_data.c, N = 32
/// `InvLn2N`: `0x1.71547652b82fep+0 · 32`.
const INVLN2N: u64 = 0x4047_1547_652b_82fe;
/// `SHIFT`: `0x1.8p+52`.
const SHIFT: u64 = 0x4338_0000_0000_0000;
/// `poly_scaled`: `0x1.c6af84b912394p-5 / N³`, `0x1.ebfce50fac4f3p-3 / N²`,
/// `0x1.62e42ff0c52d6p-1 / N`.
const C: [u64; 3] = [0x3ebc_6af8_4b91_2394, 0x3f2e_bfce_50fa_c4f3, 0x3f96_2e42_ff0c_52d6];
/// `tab[i] = bits(2^(i/32)) − (i << 47)`.
const T: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `f32` from its bits, for the constants above.
#[inline(always)]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// `f64` from its bits.
#[inline(always)]
fn d(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// `y` with `k` added to its exponent field (`SET_FLOAT_WORD(y, i + (k<<23))`).
#[inline(always)]
fn scale(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// `v as i32` (rounding toward zero) for |v| < 2^22, the range of `expm1`'s
/// `k`; any other `v` gives some integer. An `as i32` would saturate, a
/// step that does not vectorise.
#[inline(always)]
fn trunc_to_int(v: f32) -> i32 {
    // Adding and taking away 2^23 rounds |v| to an integer; one down if up.
    let av = v.abs();
    let r = (av + 8_388_608.0) - 8_388_608.0;
    let r = if r > av { r - 1.0 } else { r };
    // r + 1.5·2^23 holds r in its low mantissa bits.
    let k = (r + 12_582_912.0).to_bits().wrapping_sub(0x4b40_0000) as i32;
    if v.is_sign_negative() {
        k.wrapping_neg()
    } else {
        k
    }
}

/// glibc's `tanhf`.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2) with
    // t = expm1(−2|x|). One division serves both.
    // Selects go in as bits: a select of two floats leads the compiler to
    // run what follows on both.
    let big = ix >= TANH_ONE;
    let t = expm1(f32::from_bits((2.0 * ax).to_bits() | u32::from(!big) << 31));
    let m = u32::from(big).wrapping_neg();
    let q = f32::from_bits(2.0f32.to_bits() & m | (-t).to_bits() & !m) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ix >= TANH_SAT { 1.0 } else { z };
    let z = if x.is_sign_negative() { -z } else { z };
    // x·(1 + x) is also the branch for ±0 (`return x`): ±0·1 = ±0.
    let z = if ix < TANH_TINY { x * (1.0 + x) } else { z };
    // `1/x ± 1`: ±1 at ±∞, and at a NaN that NaN, quieted, as `x + x` is.
    let special = if x.is_nan() {
        x + x
    } else if x.is_sign_negative() {
        -1.0
    } else {
        1.0
    };
    if ix >= 0x7f80_0000 {
        special
    } else {
        z
    }
}

/// glibc's `expm1f`, for every input.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // Argument reduction, x = k·ln2 + (hi − lo). The `k = ±1` branch's
    // `x ∓ ln2_hi`, `±ln2_lo` and `k = 0`'s `x`, `0` are this formula at
    // t = ±1 and t = 0, bit for bit.
    let kr = trunc_to_int(f(INVLN2) * x + if neg { -0.5 } else { 0.5 });
    let k = if hx <= HALF_LN2 {
        0
    } else if hx < THREE_HALVES_LN2 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        kr
    };
    let tk = k as f32;
    let hi = x - tk * f(LN2_HI);
    let lo = tk * f(LN2_LO);
    let xr = hi - lo;
    let c = (hi - xr) - lo;
    // x is now in the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (f(Q1) + hxs * (f(Q2) + hxs * (f(Q3) + hxs * (f(Q4) + hxs * f(Q5)))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    let y0 = xr - (xr * e - hxs);
    let e = xr * (e - c) - c;
    let e = e - hxs;
    let y_m1 = 0.5 * (xr - e) - 0.5;
    let y_1 = if xr < -0.25 { -2.0 * (e - (xr + 0.5)) } else { 1.0 + 2.0 * (xr - e) };
    let y_far = scale(1.0 - (e - xr), k) - 1.0;
    // 2 ≤ k < 23: t = 1 − 2^-k; 23 ≤ k ≤ 56: t = 2^-k.
    let t_lo = f(0x3f80_0000 - 0x100_0000u32.wrapping_shr(k as u32));
    let y_lo = scale(t_lo - (e - xr), k);
    let t_hi = f((0x7f_i32.wrapping_sub(k) as u32).wrapping_shl(23));
    let y_hi = scale((xr - (e + t_hi)) + 1.0, k);
    let y = if k < 23 { y_lo } else { y_hi };
    let y = if k <= -2 || k > 56 { y_far } else { y };
    let y = if k == 1 { y_1 } else { y };
    let y = if k == -1 { y_m1 } else { y };
    let y = if k == 0 { y0 } else { y };
    let y = if hx < EXPM1_TINY { x } else { y };
    // Huge and non-finite arguments, in the order glibc tests them.
    let y = if neg && hx >= EXPM1_NEG_SAT { -1.0 } else { y };
    let y = if !neg && hx >= EXPM1_OFLOW { f32::INFINITY } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// `1 / (1 + expf(−x))`.
#[inline(always)]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// glibc's `expf`, FMA build.
#[inline(always)]
fn exp(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·N/ln2 = k + r with r in [−1/2, 1/2] and integer k.
    let kd = d(INVLN2N).mul_add(xd, d(SHIFT));
    let ki = kd.to_bits();
    let kd = kd - d(SHIFT);
    let r = d(INVLN2N).mul_add(xd, -kd);
    // exp(x) = 2^(k/N) · 2^(r/N) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = d(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = d(C[0]).mul_add(r, d(C[1]));
    let r2 = r * r;
    let y = d(C[2]).mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    let y = (y * s) as f32;
    // The special cases glibc tests once `top12(|x|) ≥ top12(88)`, in its
    // order (each holds only above that bound, so the bound is not tested).
    let y = if x < f(EXP_UFLOW) { 0.0 } else { y };
    let y = if x > f(EXP_OFLOW) { f32::INFINITY } else { y };
    let y = if (x.to_bits() >> 20) & 0x7ff >= EXP_TOP_INF { x + x } else { y };
    if x == f32::NEG_INFINITY {
        0.0
    } else {
        y
    }
}

/// Which build of a loop over the lanes the running CPU takes: the widest
/// it supports. Each computes the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Compiled for the target's baseline.
    Portable,
    /// Compiled with `avx2,fma`.
    Avx2Fma,
    /// Compiled with `avx512f,avx2,fma`: 16 lanes a vector.
    Avx512,
}

/// The build for the running CPU (always [`Isa::Portable`] off x86-64).
pub(crate) fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("fma") {
            return if has!("avx512f") { Isa::Avx512 } else { Isa::Avx2Fma };
        }
    }
    Isa::Portable
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The three glibc 2.36 files as written, branches and all: the oracle
    /// the lanes are held to on any host, whatever libm it links.
    mod glibc {
        use super::super::*;

        /// `s_tanhf.c`.
        pub(super) fn tanhf(x: f32) -> f32 {
            let jx = x.to_bits() as i32;
            let ix = jx & 0x7fff_ffff;
            if ix >= 0x7f80_0000 {
                return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
            }
            let z;
            if ix < TANH_SAT as i32 {
                if ix == 0 {
                    return x;
                }
                if ix < TANH_TINY as i32 {
                    return x * (1.0 + x);
                }
                if ix >= TANH_ONE as i32 {
                    let t = expm1f(2.0 * x.abs());
                    z = 1.0 - 2.0 / (t + 2.0);
                } else {
                    let t = expm1f(-2.0 * x.abs());
                    z = -t / (t + 2.0);
                }
            } else {
                z = 1.0 - 1.0e-30;
            }
            if jx >= 0 {
                z
            } else {
                -z
            }
        }

        /// `s_expm1f.c`.
        pub(super) fn expm1f(mut x: f32) -> f32 {
            let (huge, tiny, o_threshold) = (1.0e30f32, 1.0e-30f32, f(0x42b1_7180));
            let mut hx = x.to_bits();
            let xsb = hx & 0x8000_0000;
            hx &= 0x7fff_ffff;
            if hx >= EXPM1_NEG_SAT {
                if hx >= EXPM1_OFLOW {
                    if hx > 0x7f80_0000 {
                        return x + x;
                    }
                    if hx == 0x7f80_0000 {
                        return if xsb == 0 { x } else { -1.0 };
                    }
                    if x > o_threshold {
                        return huge * huge;
                    }
                }
                if xsb != 0 {
                    return tiny - 1.0;
                }
            }
            let (k, c);
            if hx > HALF_LN2 {
                let (hi, lo);
                if hx < THREE_HALVES_LN2 {
                    if xsb == 0 {
                        (hi, lo, k) = (x - f(LN2_HI), f(LN2_LO), 1);
                    } else {
                        (hi, lo, k) = (x + f(LN2_HI), -f(LN2_LO), -1);
                    }
                } else {
                    k = (f(INVLN2) * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                    let t = k as f32;
                    hi = x - t * f(LN2_HI);
                    lo = t * f(LN2_LO);
                }
                x = hi - lo;
                c = (hi - x) - lo;
            } else if hx < EXPM1_TINY {
                let t = huge + x;
                return x - (t - huge);
            } else {
                (k, c) = (0, 0.0);
            }
            let hfx = 0.5 * x;
            let hxs = x * hfx;
            let r1 =
                1.0 + hxs * (f(Q1) + hxs * (f(Q2) + hxs * (f(Q3) + hxs * (f(Q4) + hxs * f(Q5)))));
            let t = 3.0 - r1 * hfx;
            let mut e = hxs * ((r1 - t) / (6.0 - x * t));
            if k == 0 {
                return x - (x * e - hxs);
            }
            e = x * (e - c) - c;
            e -= hxs;
            if k == -1 {
                return 0.5 * (x - e) - 0.5;
            }
            if k == 1 {
                return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 1.0 + 2.0 * (x - e) };
            }
            if k <= -2 || k > 56 {
                let y = 1.0 - (e - x);
                return f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32) - 1.0;
            }
            let y = if k < 23 {
                let t = f((0x3f80_0000 - (0x100_0000 >> k)) as u32);
                t - (e - x)
            } else {
                let t = f(((0x7f - k) << 23) as u32);
                (x - (e + t)) + 1.0
            };
            f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32)
        }

        /// `e_expf.c` as the FMA build runs it: `z = InvLn2N·xd` feeds two
        /// contracted sums, and so do the polynomial's three.
        pub(super) fn expf(x: f32) -> f32 {
            let abstop = (x.to_bits() >> 20) & 0x7ff;
            if abstop >= 0x42b {
                if x == f32::NEG_INFINITY {
                    return 0.0;
                }
                if abstop >= EXP_TOP_INF {
                    return x + x;
                }
                if x > f(EXP_OFLOW) {
                    return f(0x7000_0000) * f(0x7000_0000);
                }
                if x < f(EXP_UFLOW) {
                    return f(0x1000_0000) * f(0x1000_0000);
                }
            }
            let xd = f64::from(x);
            let kd = d(INVLN2N).mul_add(xd, d(SHIFT));
            let ki = kd.to_bits();
            let kd = kd - d(SHIFT);
            let r = d(INVLN2N).mul_add(xd, -kd);
            let mut t = T[(ki % 32) as usize];
            t = t.wrapping_add(ki << 47);
            let s = d(t);
            let z = d(C[0]).mul_add(r, d(C[1]));
            let r2 = r * r;
            let y = d(C[2]).mul_add(r, 1.0);
            let y = z.mul_add(r2, y);
            (y * s) as f32
        }

        pub(super) fn sigmoid(x: f32) -> f32 {
            1.0 / (1.0 + expf(-x))
        }
    }

    /// Which lane a sweep runs.
    #[derive(Clone, Copy, Debug)]
    enum Lane {
        Tanh,
        Sigmoid,
        Expm1,
        Exp,
    }

    const LANES: [Lane; 4] = [Lane::Tanh, Lane::Sigmoid, Lane::Expm1, Lane::Exp];

    impl Lane {
        fn oracle(self, x: f32) -> f32 {
            match self {
                Lane::Tanh => glibc::tanhf(x),
                Lane::Sigmoid => glibc::sigmoid(x),
                Lane::Expm1 => glibc::expm1f(x),
                Lane::Exp => glibc::expf(x),
            }
        }
    }

    /// The lane over a slice in place, as a loop over a gate block runs it.
    #[inline(always)]
    fn apply_body(lane: Lane, v: &mut [f32]) {
        match lane {
            Lane::Tanh => v.iter_mut().for_each(|x| *x = tanh(*x)),
            Lane::Sigmoid => v.iter_mut().for_each(|x| *x = sigmoid(*x)),
            Lane::Expm1 => v.iter_mut().for_each(|x| *x = expm1(*x)),
            Lane::Exp => v.iter_mut().for_each(|x| *x = exp(*x)),
        }
    }

    fn apply_portable(lane: Lane, v: &mut [f32]) {
        apply_body(lane, v);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA ([`isa`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn apply_avx2_fma(lane: Lane, v: &mut [f32]) {
        apply_body(lane, v);
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX2 and FMA ([`isa`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn apply_avx512(lane: Lane, v: &mut [f32]) {
        apply_body(lane, v);
    }

    /// A build of [`apply_body`], by name.
    type Build = (&'static str, fn(Lane, &mut [f32]));

    /// The builds this CPU can run: the portable one and each wider one
    /// up to [`isa`]'s.
    fn builds() -> Vec<Build> {
        let mut builds: Vec<Build> = vec![("portable", apply_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if isa() != Isa::Portable {
                // SAFETY: `isa` checked AVX2 and FMA at run time.
                builds.push(("avx2,fma", |lane, v| unsafe { apply_avx2_fma(lane, v) }));
            }
            if isa() == Isa::Avx512 {
                // SAFETY: `isa` checked AVX-512F, AVX2 and FMA at run time.
                builds.push(("avx512f", |lane, v| unsafe { apply_avx512(lane, v) }));
            }
        }
        builds
    }

    /// Holds every lane in every build to the transcription on `xs`.
    fn check(xs: &[f32]) {
        for lane in LANES {
            for (build, apply) in builds() {
                let mut v = xs.to_vec();
                apply(lane, &mut v);
                for (&x, &y) in xs.iter().zip(&v) {
                    let want = lane.oracle(x);
                    assert_eq!(
                        y.to_bits(),
                        want.to_bits(),
                        "{lane:?} ({build}) of {x:e} ({:#010x}): {y:e}, glibc {want:e}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// `v`'s bit pattern and its `ulps` neighbours either side, both signs.
    fn around(v: f32, ulps: u32) -> Vec<f32> {
        let bits = v.abs().to_bits();
        (bits.saturating_sub(ulps)..=bits + ulps)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    #[test]
    fn zeros_infinities_and_nans() {
        check(&[
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f(0x7f80_0001),
            f(0xff80_0001),
            f(0x7fc1_2345),
            f(0xffbf_ffff),
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
        ]);
    }

    #[test]
    fn every_branch_boundary_and_its_neighbours() {
        let mut xs = Vec::new();
        // `tanhf`'s own, and `expm1f`'s reached through `tanh(x) = …expm1(±2x)`.
        for bits in [TANH_TINY, TANH_ONE, TANH_SAT] {
            xs.extend(around(f(bits), 2));
        }
        for bits in [EXPM1_TINY, HALF_LN2, THREE_HALVES_LN2, EXPM1_NEG_SAT, EXPM1_OFLOW] {
            xs.extend(around(f(bits), 2));
            xs.extend(around(f(bits) / 2.0, 2));
        }
        // Where k = trunc(x/ln2 ± 0.5) steps: x = (k − 0.5)·ln2.
        for k in [1, 2, 3, 22, 23, 56, 57, 128] {
            let edge = (k as f32 - 0.5) * std::f32::consts::LN_2;
            xs.extend(around(edge, 64));
            xs.extend(around(edge / 2.0, 64));
        }
        // `expf`'s: where its special cases start, and where they act.
        for bits in [0x42b0_0000, EXP_OFLOW, EXP_UFLOW, 0x42cf_f1b4, 0x42ce_8ed0] {
            xs.extend(around(f(bits), 2));
        }
        check(&xs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn random_bit_patterns_match_glibc(bits in 0..=u32::MAX) {
            check(&[f32::from_bits(bits)]);
        }
    }

    /// Every subnormal magnitude, both signs.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a minute unoptimised; CI runs this suite with --release"
    )]
    fn every_subnormal_matches_glibc() {
        let xs: Vec<f32> =
            (1..0x80_0000u32).flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)]).collect();
        for chunk in xs.chunks(1 << 16) {
            check(chunk);
        }
    }

    /// `count` random bit patterns from `seed` (a 32-bit xorshift), every
    /// lane in every build.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a minute unoptimised; CI runs this suite with --release"
    )]
    fn ten_million_random_patterns_match_glibc() {
        let mut state = 0x9e37_79b9u32;
        let mut xs = vec![0.0f32; 1 << 16];
        for _ in 0..(10_000_000 >> 16) + 1 {
            for x in &mut xs {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                *x = f32::from_bits(state);
            }
            check(&xs);
        }
    }

    /// All 2^32 inputs of both lanes in every build against this host's
    /// libm, by hand: `cargo test --release -p pipetune-dnn --lib lanes --
    /// --ignored --nocapture`. Equality holds where libm is glibc's
    /// (2.36 here) and its `expf` the FMA build.
    #[test]
    #[ignore = "minutes even optimised; run by hand"]
    fn every_input_matches_this_hosts_libm() {
        let libm = |lane: Lane, x: f32| match lane {
            Lane::Tanh => x.tanh(),
            _ => 1.0 / (1.0 + (-x).exp()),
        };
        for lane in [Lane::Tanh, Lane::Sigmoid] {
            for (build, apply) in builds() {
                let start = std::time::Instant::now();
                let half = 1u64 << 31;
                let mismatches: u64 = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..2u64)
                        .map(|w| {
                            s.spawn(move || {
                                let mut v = vec![0.0f32; 1 << 16];
                                let mut bad = 0u64;
                                for base in (w * half..(w + 1) * half).step_by(1 << 16) {
                                    for (i, x) in v.iter_mut().enumerate() {
                                        *x = f32::from_bits((base + i as u64) as u32);
                                    }
                                    apply(lane, &mut v);
                                    for (i, y) in v.iter().enumerate() {
                                        let x = f32::from_bits((base + i as u64) as u32);
                                        bad += u64::from(y.to_bits() != libm(lane, x).to_bits());
                                    }
                                }
                                bad
                            })
                        })
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).sum()
                });
                println!(
                    "{lane:?} ({build}): 2^32 inputs, {mismatches} mismatches, {:.1} s",
                    start.elapsed().as_secs_f64()
                );
                assert_eq!(mismatches, 0, "{lane:?} ({build})");
            }
        }
    }
}
