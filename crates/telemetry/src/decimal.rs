//! Decimal text of numbers, byte for byte what std's formatting writes and
//! without its formatting machinery: `{}` of a `u64` / `i64`, `{:?}` of an
//! `f64` (the trace and metrics JSON) and `{}` of an `f64` (line protocol,
//! Prometheus samples).
//!
//! A float's digits are the shortest decimal that reads back as it and,
//! among those, the closest to it — with a tie going up, as std's
//! Grisu-then-Dragon4 printer breaks one — found by Giulietti's Schubfach
//! ("The Schubfach way to render doubles", 2020): three products against a
//! 126-bit approximation of a power of ten, from a table this file builds
//! in a `const` block. Integral values below 2^53 skip that and go through
//! the integer writer; NaN, the infinities and `{}` of a float far from 1
//! fall back to std. The tests hold every path to `format!` on every class
//! of float.

use std::fmt::Write as _;

/// `"00"`, `"01"`, …, `"99"`, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Room for every text this module writes itself: a sign and a `u64`, a
/// float's 17 digits with its point and zeros, or its exponent form. `{}`
/// of a float far from 1 (below about 1e-20, or from 1e39 up), whose
/// positional text is longer, is left to std.
const MAX_TEXT: usize = 40;

/// How many decimal digits `v` has.
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Writes the `count` decimal digits of `v` to end at `end`.
fn write_digits(text: &mut [u8], end: usize, mut v: u64, count: usize) {
    let mut at = end;
    while at >= end + 2 - count {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        text[at - 2..at].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        at -= 2;
    }
    if at > end - count {
        text[at - 1] = b'0' + (v % 10) as u8;
    }
}

/// Appends the text of one number: digits, `-`, `.` and `e`, all ASCII, so
/// the check for UTF-8 always passes.
fn push_ascii(out: &mut String, text: &[u8]) {
    out.push_str(std::str::from_utf8(text).unwrap_or_default());
}

/// Writes `v` as `{}` does; returns the length.
fn unsigned(text: &mut [u8], v: u64) -> usize {
    let count = digit_count(v);
    write_digits(text, count, v, count);
    count
}

/// Appends `v` as `format!("{v}")` writes it.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut text = [0; MAX_TEXT];
    let len = unsigned(&mut text, v);
    push_ascii(out, &text[..len]);
}

/// Appends `v` as `format!("{v}")` writes it.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    let mut text = [b'-'; MAX_TEXT];
    let sign = usize::from(v < 0);
    let len = sign + unsigned(&mut text[sign..], v.unsigned_abs());
    push_ascii(out, &text[..len]);
}

/// Appends `v` as `format!("{v:?}")` writes it: positional with at least
/// one fractional digit when `1e-4 <= |v| < 1e16` (or `v` is zero), the
/// shortest exponent form (`1e16`, `2.5e-7`) otherwise.
pub(crate) fn push_debug(out: &mut String, v: f64) {
    let written = push_float(out, v, |text, magnitude| {
        if magnitude == 0.0 {
            text[..3].copy_from_slice(b"0.0");
            Some(3)
        } else if let Some(n) = small_integer(magnitude) {
            let len = unsigned(text, n);
            text[len..len + 2].copy_from_slice(b".0");
            Some(len + 2)
        } else if (1e-4..1e16).contains(&magnitude) {
            positional(text, shortest(magnitude), b".0")
        } else {
            Some(exponential(text, shortest(magnitude)))
        }
    });
    if written.is_none() {
        let _ = write!(out, "{v:?}");
    }
}

/// Appends `v` as `format!("{v}")` writes it: positional always, without a
/// fractional part when `v` is integral.
pub(crate) fn push_display(out: &mut String, v: f64) {
    let written = push_float(out, v, |text, magnitude| {
        if magnitude == 0.0 {
            text[0] = b'0';
            Some(1)
        } else if let Some(n) = small_integer(magnitude) {
            Some(unsigned(text, n))
        } else {
            positional(text, shortest(magnitude), b"")
        }
    });
    if written.is_none() {
        let _ = write!(out, "{v}");
    }
}

/// Appends the sign of a finite `v` (`-0.0` has one) and what `magnitude`
/// writes of `|v|`. `None`, and nothing appended, for NaN, the infinities
/// and whatever `magnitude` does not write.
fn push_float(
    out: &mut String,
    v: f64,
    magnitude: impl FnOnce(&mut [u8], f64) -> Option<usize>,
) -> Option<()> {
    if !v.is_finite() {
        return None;
    }
    let mut text = [b'-'; MAX_TEXT];
    let sign = usize::from(v.is_sign_negative());
    let len = sign + magnitude(&mut text[sign..], v.abs())?;
    push_ascii(out, &text[..len]);
    Some(())
}

/// `v` as an integer when it is one below 2^53, where every integer is a
/// float and its digits are its shortest spelling.
fn small_integer(v: f64) -> Option<u64> {
    const LIMIT: f64 = (1u64 << 53) as f64;
    let n = v as u64;
    (v < LIMIT && n as f64 == v).then_some(n)
}

/// The shortest digits of a float (see [`shortest`]).
struct Digits {
    /// The digits as an integer, without trailing zeros.
    significand: u64,
    count: usize,
    /// Where the decimal point goes: the float is `0.d₁d₂…dₙ × 10^point`.
    point: i32,
}

/// `0.d₁d₂…dₙ × 10^point` without an exponent — `0.000ddd`, `dd.ddd`, or
/// `ddd000` and then `suffix` — and its length, if it fits.
fn positional(text: &mut [u8], digits: Digits, suffix: &[u8]) -> Option<usize> {
    let Digits { significand, count, point } = digits;
    if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        let len = 2 + zeros + count;
        text.get(..len)?;
        text[..2].copy_from_slice(b"0.");
        text[2..2 + zeros].fill(b'0');
        write_digits(text, len, significand, count);
        Some(len)
    } else if (point as usize) < count {
        let whole = point as usize;
        write_digits(text, count + 1, significand, count);
        text.copy_within(1..=whole, 0);
        text[whole] = b'.';
        Some(count + 1)
    } else {
        let whole = point as usize;
        let len = whole + suffix.len();
        text.get(..len)?;
        write_digits(text, count, significand, count);
        text[count..whole].fill(b'0');
        text[whole..len].copy_from_slice(suffix);
        Some(len)
    }
}

/// `0.d₁d₂…dₙ × 10^point` as `d₁[.d₂…dₙ]e<point - 1>`, and its length.
fn exponential(text: &mut [u8], digits: Digits) -> usize {
    let Digits { significand, count, point } = digits;
    write_digits(text, count + 1, significand, count);
    text[0] = text[1];
    let mut len = 1;
    if count > 1 {
        text[1] = b'.';
        len = count + 1;
    }
    text[len] = b'e';
    len += 1;
    if point < 1 {
        text[len] = b'-';
        len += 1;
    }
    len + unsigned(&mut text[len..], u64::from((point - 1).unsigned_abs()))
}

/// The shortest digits of a positive finite `v`, closest to it.
fn shortest(v: f64) -> Digits {
    let (mut significand, mut exponent) = schubfach(v.to_bits());
    while significand % 10 == 0 {
        significand /= 10;
        exponent += 1;
    }
    let count = digit_count(significand);
    Digits { significand, count, point: exponent + count as i32 }
}

/// Bits of an `f64` fraction.
const FRACTION_BITS: u32 = 52;
/// The implicit leading bit of a normal significand.
const HIDDEN_BIT: u64 = 1 << FRACTION_BITS;
/// The binary exponent of a significand's unit in a subnormal.
const Q_MIN: i32 = -1074;
/// The least and greatest power of ten the table holds: what
/// [`schubfach`] asks for between the smallest subnormal and `f64::MAX`.
const E_MIN: i32 = -292;
const E_MAX: i32 = 324;

/// `⌊q·log₁₀2⌋`, exact for the `q` of every `f64`.
const fn flog10_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083) >> 41) as i32
}

/// `⌊log₁₀(¾·2^q)⌋`, exact for the `q` of every `f64`.
const fn flog10_three_quarters_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `⌊e·log₂10⌋`, exact over the table.
const fn flog2_pow10(e: i32) -> i32 {
    ((e as i64 * 913_124_641_741) >> 38) as i32
}

/// `(f, k)` with `f·10^k` the shortest decimal in the rounding interval of
/// the positive finite float with these bits, and of those the closest to
/// it, a tie going up. Section 9 of the paper, with two departures that
/// make it std's choice rather than Java's: no two-digit minimum (so no
/// `s ≥ 100` guard and no ten-fold subnormal), and the halfway case goes up
/// instead of to even. The interval is the one std's `flt2dec::decode`
/// gives, whose narrower lower half at a normal power of two includes
/// `f64::MIN_POSITIVE`.
fn schubfach(bits: u64) -> (u64, i32) {
    let fraction = bits & (HIDDEN_BIT - 1);
    let biased = (bits >> FRACTION_BITS) as i32;
    let (c, q) =
        if biased == 0 { (fraction, Q_MIN) } else { (HIDDEN_BIT | fraction, Q_MIN - 1 + biased) };
    // The interval's bounds are in it when `c` is even.
    let out = c & 1;
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if biased > 0 && fraction == 0 {
        (cb - 1, flog10_three_quarters_pow2(q))
    } else {
        (cb - 2, flog10_pow2(q))
    };
    let h = q + flog2_pow10(-k) + 2;
    let g = POW10[(-k - E_MIN) as usize];
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h);
    let vbr = round_to_odd(g, cbr << h);

    // One digit shorter: the one multiple of ten in the interval, if any.
    let s = vb >> 2;
    let sp10 = s / 10 * 10;
    let tp10 = sp10 + 10;
    let upin = vbl + out <= sp10 << 2;
    let wpin = (tp10 << 2) + out <= vbr;
    if upin != wpin {
        return (if upin { sp10 } else { tp10 }, k);
    }
    // Full length: the one of `s`, `s + 1` in the interval, or the closer.
    let t = s + 1;
    let uin = vbl + out <= s << 2;
    let win = (t << 2) + out <= vbr;
    if uin != win {
        return (if uin { s } else { t }, k);
    }
    (if vb < (s + t) << 1 { s } else { t }, k)
}

/// `g·cp / 2^127` rounded to odd, from the same partial products as the
/// paper's `rop` (so with the same error its proofs allow for).
fn round_to_odd(g: u128, cp: u64) -> u64 {
    const MASK_63: u64 = (1 << 63) - 1;
    let (g1, g0) = ((g >> 63) as u64, g as u64 & MASK_63);
    let x1 = ((u128::from(g0) * u128::from(cp)) >> 64) as u64;
    let y = u128::from(g1) * u128::from(cp);
    let (y0, y1) = (y as u64, (y >> 64) as u64);
    let z = (y0 >> 1) + x1;
    let vbp = y1 + (z >> 63);
    vbp | ((z & MASK_63) + MASK_63) >> 63
}

/// Limbs of the table builder's integers: 14 × 64 bits hold `2^832`, the
/// numerator the reciprocals are taken from, and `5^324`.
const LIMBS: usize = 14;
/// `2^RECIPROCAL_BITS / 5^n` is floored down to the table's 126 bits.
const RECIPROCAL_BITS: usize = 832;

/// `x · 5`.
const fn times_five(x: &mut [u64; LIMBS]) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let wide = x[i] as u128 * 5 + carry;
        x[i] = wide as u64;
        carry = wide >> 64;
        i += 1;
    }
}

/// `⌊x / 5⌋`.
const fn over_five(x: &mut [u64; LIMBS]) {
    let mut rest = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let wide = (rest << 64) | x[i] as u128;
        x[i] = (wide / 5) as u64;
        rest = wide % 5;
    }
}

/// `⌊x / 2^shift⌋ mod 2^128`.
const fn bits_from(x: &[u64; LIMBS], shift: usize) -> u128 {
    let (word, bit) = (shift / 64, shift % 64);
    let mut out = 0u128;
    let mut i = 0;
    while i < 3 && word + i < LIMBS && 64 * i < 128 + bit {
        let limb = x[word + i] as u128;
        out |= if i == 0 { limb >> bit } else { limb << (64 * i - bit) };
        i += 1;
    }
    out
}

/// `g(e) = ⌊10^e · 2^(125 − ⌊e·log₂10⌋)⌋ + 1` for `e` in `E_MIN..=E_MAX`,
/// indexed by `e − E_MIN`: `10^e` scaled into `[2^125, 2^126)` and rounded
/// up (the paper's `g`). Exact: `5^e` by repeated multiplication, `1/5^n`
/// as `⌊2^832 / 5^n⌋` by repeated division.
static POW10: [u128; (E_MAX - E_MIN + 1) as usize] = {
    let mut table = [0u128; (E_MAX - E_MIN + 1) as usize];
    // 10^e = 5^e · 2^e, so g(e) = 5^e · 2^(125 + e − ⌊e·log₂10⌋) + 1.
    let mut power = [0u64; LIMBS];
    power[0] = 1;
    let mut e = 0;
    while e <= E_MAX {
        let shift = 125 + e - flog2_pow10(e);
        table[(e - E_MIN) as usize] = if shift >= 0 {
            bits_from(&power, 0) << shift
        } else {
            bits_from(&power, -shift as usize)
        } + 1;
        times_five(&mut power);
        e += 1;
    }
    // 10^-n = 2^-n / 5^n, so g(-n) = ⌊2^(125 − n − ⌊-n·log₂10⌋) / 5^n⌋ + 1,
    // and ⌊⌊2^832 / 5^n⌋ / 2^m⌋ = ⌊2^(832 − m) / 5^n⌋.
    let mut reciprocal = [0u64; LIMBS];
    reciprocal[RECIPROCAL_BITS / 64] = 1 << (RECIPROCAL_BITS % 64);
    let mut n = 1;
    while n <= -E_MIN {
        over_five(&mut reciprocal);
        let numerator = 125 - n - flog2_pow10(-n);
        table[(-n - E_MIN) as usize] =
            bits_from(&reciprocal, RECIPROCAL_BITS - numerator as usize) + 1;
        n += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// Both spellings of `v` against std's.
    fn check(v: f64) {
        let mut out = String::new();
        push_debug(&mut out, v);
        assert_eq!(out, format!("{v:?}"), "{{:?}} of {v:?} ({:#018x})", v.to_bits());
        out.clear();
        push_display(&mut out, v);
        assert_eq!(out, format!("{v}"), "{{}} of {v:?} ({:#018x})", v.to_bits());
    }

    /// `v`, its neighbours one ulp either side and the negatives of all
    /// three.
    fn check_around(v: f64) {
        for w in [v, v.next_up(), v.next_down()] {
            check(w);
            check(-w);
        }
    }

    #[test]
    fn integers_match_std() {
        let mut out = String::new();
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX / 10, u64::MAX - 1, u64::MAX] {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [0, -1, -10, 42, i64::MIN, i64::MIN + 1, i64::MAX] {
            out.clear();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for p in 0..20 {
            let v = 10u64.pow(p);
            for w in [v - 1, v, v + 1] {
                out.clear();
                push_u64(&mut out, w);
                assert_eq!(out, w.to_string());
            }
        }
    }

    #[test]
    fn the_table_is_normalised() {
        for (i, g) in POW10.iter().enumerate() {
            assert_eq!(g >> 125, 1, "g({}) = {g:#x}", i as i32 + E_MIN);
        }
        // Entries that are exact (10^e with e small) are one above it.
        assert_eq!(POW10[(-E_MIN) as usize], (1 << 125) + 1);
        assert_eq!(POW10[(1 - E_MIN) as usize], (10 << 122) + 1);
    }

    #[test]
    fn zeros_and_the_ends_of_the_range_match_std() {
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(3),
            f64::MIN_POSITIVE.next_down(),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(v);
            check(-v);
        }
    }

    #[test]
    fn every_subnormal_order_of_magnitude_matches_std() {
        for bits in (0..FRACTION_BITS).map(|b| 1u64 << b) {
            for w in [bits, bits + 1, bits - 1, bits | (bits >> 1), (bits << 1) - 1] {
                check(f64::from_bits(w));
            }
        }
    }

    #[test]
    fn powers_of_two_and_ten_and_their_neighbours_match_std() {
        for e in -1074..=1023 {
            check_around(2f64.powi(e));
        }
        for e in -323..=308 {
            // The nearest float to 10^e, read the way a parser reads it.
            let v: f64 = format!("1e{e}").parse().unwrap();
            check_around(v);
        }
    }

    #[test]
    fn integers_up_to_two_to_the_fifty_three_and_past_match_std() {
        for n in (0..=10_000u64).chain((1 << 53) - 10_000..=(1 << 53) + 4) {
            check(n as f64);
        }
        for shift in 0..=53 {
            let n = 1u64 << shift;
            for m in [n - 1, n, n + 1, n * 3, n * 5] {
                check(m as f64);
            }
        }
        for p in 0..=22 {
            check(10f64.powi(p));
        }
    }

    #[test]
    fn the_switches_between_notations_match_std() {
        // `{:?}` leaves positional notation at 1e16 and below 1e-4; `{}`
        // never does, and drops `.0` below 2^53.
        for v in [1e16, 1e-4, 1e-5, 9_999_999_999_999_998.0, 1e15, 2f64.powi(53), 0.000_099_999] {
            check_around(v);
        }
        for e in 15..=17 {
            for k in 1..=9 {
                check_around(f64::from(k) * 10f64.powi(e));
            }
        }
    }

    #[test]
    fn widened_f32_and_seventeen_digit_values_match_std() {
        let mut x = 0.1f32;
        for _ in 0..2_000 {
            check(f64::from(x));
            check(f64::from(1.0 - x));
            x = x * 1.618 % 1.0 + 1e-3;
        }
        for v in [0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 123.456_789_012_345_67, 4.35, 0.072_5] {
            check_around(v);
        }
        // Halfway between two shortest candidates, std rounds up (not to
        // even): 2^50 + 0.25 is `…624.3`.
        let tie = 2f64.powi(50) + 0.25;
        assert_eq!(format!("{tie}"), "1125899906842624.3");
        check(tie);
        check(tie + 0.5);
        let mut t = 0.0;
        for _ in 0..5_000 {
            t += 0.097_531;
            check(t);
            check(t * 1e-3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn random_bit_patterns_match_std(bits in 0..=u64::MAX) {
            check(f64::from_bits(bits));
        }
    }

    /// `count` random bit patterns from `seed` (a 64-bit xorshift), each
    /// spelt both ways and held to std; returns how many were checked.
    fn sweep(seed: u64, count: u64) -> u64 {
        let (mut state, mut out, mut std) = (seed, String::new(), String::new());
        for _ in 0..count {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = f64::from_bits(state);
            out.clear();
            std.clear();
            push_debug(&mut out, v);
            let _ = write!(std, "{v:?}");
            assert_eq!(out, std, "{{:?}} of {:#018x}", v.to_bits());
            out.clear();
            std.clear();
            push_display(&mut out, v);
            let _ = write!(std, "{v}");
            assert_eq!(out, std, "{{}} of {:#018x}", v.to_bits());
        }
        count
    }

    /// Ten million patterns, seconds optimised.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a minute unoptimised; CI runs this suite with --release"
    )]
    fn ten_million_random_patterns_match_std() {
        assert_eq!(sweep(0x9e37_79b9_7f4a_7c15, 10_000_000), 10_000_000);
    }

    /// A billion patterns, by hand: `cargo test --release -p
    /// pipetune-telemetry --lib decimal -- --ignored`.
    #[test]
    #[ignore = "minutes even optimised; run by hand"]
    fn a_billion_random_patterns_match_std() {
        assert_eq!(sweep(0x2545_f491_4f6c_dd1d, 1_000_000_000), 1_000_000_000);
    }
}
