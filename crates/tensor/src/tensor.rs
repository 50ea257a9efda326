use rand::Rng;
use serde::{content_get, Content, DeError, Deserialize, Serialize};

use crate::{Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the single data type flowing through the `pipetune-dnn`
/// framework: inputs, activations, weights and gradients are all `Tensor`s.
///
/// # Example
///
/// ```
/// use pipetune_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
///
/// # Wire form
///
/// A tensor serialises as `{"shape":[…],"bits":"…"}`: `bits` is every
/// element's [`f32::to_bits`] as eight lower-case hex digits, most
/// significant first (`3f800000` is 1.0), row-major, no separators. Bit
/// patterns, not decimals: ±0.0, denormals, ±∞ and every NaN payload come
/// back exactly, and an element costs eight bytes whatever its value.
/// Deserialising checks the form against itself — the element count is the
/// overflow-checked product of `shape` and one eighth of the digit count,
/// every digit is in `[0-9a-f]` — so a tensor whose buffer disagrees with
/// its shape cannot be built from outside the crate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![1.0; len] }
    }

    /// Wraps a flat buffer in a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when `data.len()` is not the
    /// product of `dims` — which no length is when the product overflows
    /// (`expected` then reads `usize::MAX`).
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        // `dims` may come from a file: multiply checked, or a product that
        // wraps to `data.len()` passes for it.
        let expected = dims.iter().try_fold(1usize, |len, &dim| len.checked_mul(dim));
        if expected != Some(data.len()) {
            return Err(TensorError::SizeMismatch {
                expected: expected.unwrap_or(usize::MAX),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape: Shape::new(dims), data })
    }

    /// Samples every element from `N(0, std²)` using a Box-Muller transform.
    ///
    /// Used for weight initialisation; the caller supplies the RNG so that
    /// model construction stays deterministic under a fixed seed.
    pub fn randn<R: Rng>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < len {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.data.len() {
            return Err(TensorError::SizeMismatch {
                expected: shape.len(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Retargets this tensor's shape and buffer length for a kernel that
    /// will fully overwrite it, growing the buffer only when the element
    /// count increases (the grow-only rule of `docs/performance.md`).
    pub(crate) fn reshape_in_place_for_kernel(&mut self, dims: &[usize]) {
        if self.shape.dims() == dims {
            return; // steady state: shape and buffer already match
        }
        let shape = Shape::new(dims);
        self.data.resize(shape.len(), 0.0);
        self.shape = shape;
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// ASCII byte → the nibble it spells; `0xff` for anything outside
/// `[0-9a-f]`, so OR-ing the looked-up values of a run flags a bad digit
/// anywhere in it.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut n = 0;
    while n < 16 {
        table[HEX_DIGITS[n] as usize] = n as u8;
        n += 1;
    }
    table
};

impl Serialize for Tensor {
    fn to_content(&self) -> Content {
        let mut bits = vec![0u8; self.data.len() * 8];
        for (word, x) in bits.chunks_exact_mut(8).zip(&self.data) {
            let mut rest = x.to_bits();
            for digit in word.iter_mut().rev() {
                *digit = HEX_DIGITS[(rest & 0xf) as usize];
                rest >>= 4;
            }
        }
        let bits = String::from_utf8(bits).expect("hex digits are ASCII");
        Content::Map(vec![
            ("shape".to_string(), self.shape.to_content()),
            ("bits".to_string(), Content::Str(bits)),
        ])
    }
}

impl Deserialize for Tensor {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let members =
            content.as_map_slice().ok_or_else(|| DeError::custom("Tensor: expected a map"))?;
        let member = |name: &str| {
            content_get(members, name)
                .ok_or_else(|| DeError::custom(format!("Tensor: missing field `{name}`")))
        };
        let shape = Shape::from_content(member("shape")?)
            .map_err(|e| DeError::custom(format!("Tensor: `shape`: {e}")))?;
        let Content::Str(bits) = member("bits")? else {
            return Err(DeError::custom("Tensor: `bits` must be a string of hex digits"));
        };
        let len = shape
            .dims()
            .iter()
            .try_fold(1usize, |len, &dim| len.checked_mul(dim))
            .filter(|len| len.checked_mul(8) == Some(bits.len()))
            .ok_or_else(|| {
                DeError::custom(format!(
                    "Tensor: `shape` {:?} needs eight `bits` digits per element, found {}",
                    shape.dims(),
                    bits.len()
                ))
            })?;
        let mut data = Vec::with_capacity(len);
        let mut seen = 0u8;
        for word in bits.as_bytes().chunks_exact(8) {
            let mut x = 0u32;
            for &digit in word {
                let nibble = NIBBLE[usize::from(digit)];
                seen |= nibble;
                x = x << 4 | u32::from(nibble & 0xf);
            }
            data.push(f32::from_bits(x));
        }
        if seen > 0xf {
            let at = bits.bytes().position(|d| NIBBLE[usize::from(d)] > 0xf).unwrap_or_default();
            return Err(DeError::custom(format!(
                "Tensor: `bits` digit {at} is not one of [0-9a-f]"
            )));
        }
        Ok(Tensor { shape, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_size() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn randn_is_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(Tensor::randn(&[4, 4], 0.1, &mut a), Tensor::randn(&[4, 4], 0.1, &mut b));
    }

    #[test]
    fn randn_has_roughly_correct_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / t.len() as f32;
        let var: f32 =
            t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }

    fn bit_patterns(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    fn wire(shape: &str, bits: &str) -> Result<Tensor, DeError> {
        let shape: Vec<Content> = shape
            .split(',')
            .filter(|d| !d.is_empty())
            .map(|d| d.parse().map_or(Content::U64(u64::MAX), Content::I64))
            .collect();
        Tensor::from_content(&Content::Map(vec![
            ("shape".to_string(), Content::Seq(shape)),
            ("bits".to_string(), Content::Str(bits.to_string())),
        ]))
    }

    #[test]
    fn wire_form_is_eight_hex_digits_per_element() {
        let t = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert_eq!(
            t.to_content(),
            Content::Map(vec![
                ("shape".to_string(), Content::Seq(vec![Content::I64(2)])),
                ("bits".to_string(), Content::Str("3f800000c0000000".to_string())),
            ])
        );
        assert_eq!(wire("2", "3f800000c0000000").unwrap(), t);
    }

    #[test]
    fn wire_form_preserves_every_class_of_f32_bit_for_bit() {
        let classes: Vec<f32> = [
            0x0000_0000, // +0.0
            0x8000_0000, // -0.0
            0x0000_0001, // smallest denormal
            0x807f_ffff, // largest denormal, negative
            f32::MIN_POSITIVE.to_bits(),
            f32::MAX.to_bits(),
            f32::MIN.to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            f32::NAN.to_bits(),
            0x7fc0_1234, // quiet NaN with a payload
            0xffc0_0001, // the same, sign set
            0x7f80_0001, // signalling NaNs
            0x7fbf_ffff,
            0xff80_0001,
            0.1f32.to_bits(),
        ]
        .into_iter()
        .map(f32::from_bits)
        .collect();
        let t = Tensor::from_vec(classes.clone(), &[4, 4]).unwrap();
        let back = Tensor::from_content(&t.to_content()).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(bit_patterns(&back), bit_patterns(&t));
        assert!(back.data()[9].is_nan() && back.data()[7] == f32::INFINITY);
    }

    #[test]
    fn wire_form_that_disagrees_with_itself_is_rejected() {
        assert!(wire("2,2", &"0".repeat(32)).is_ok());
        assert!(wire("", "3f800000").is_ok(), "a scalar shape holds one element");
        assert!(wire("0,3", "").is_ok(), "an empty tensor has no digits");
        for (shape, bits, names) in [
            ("2,2", "0".repeat(24), "`shape`"), // payload cut short
            ("2,2", "0".repeat(40), "`shape`"), // payload too long
            ("2,2", "0".repeat(31), "`shape`"), // odd digit count
            ("", String::new(), "`shape`"),     // a scalar needs its element
            ("18446744073709551615,2", "0".repeat(16), "`shape`"), // count overflows
            ("4294967296,4294967296,4294967296", String::new(), "`shape`"), // wraps to 0
            ("1", "3f80000g".to_string(), "digit 7"),
            ("1", "3F800000".to_string(), "digit 1"), // lower case only
            ("2", "3f800000 0000000".to_string(), "digit 8"),
            ("1", "3f80000é".to_string(), "`shape`"), // nine bytes
        ] {
            let err = wire(shape, &bits).expect_err(shape).to_string();
            assert!(err.contains(names), "[{shape}] {bits:?}: {err}");
        }
        let no_bits = Content::Map(vec![("shape".to_string(), Content::Seq(vec![]))]);
        assert!(Tensor::from_content(&no_bits).unwrap_err().to_string().contains("`bits`"));
        let decimals = Content::Map(vec![
            ("shape".to_string(), Content::Seq(vec![Content::I64(1)])),
            ("bits".to_string(), Content::Seq(vec![Content::F64(0.1)])),
        ]);
        assert!(Tensor::from_content(&decimals).unwrap_err().to_string().contains("`bits`"));
        assert!(Tensor::from_content(&Content::Null).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any bit pattern under any shape of rank 0–4, empty ones
            /// included, comes back with the same shape and the same bits.
            #[test]
            fn wire_form_round_trips_arbitrary_bit_patterns(
                dims in prop::collection::vec(0usize..5, 0..=4),
                seed in 0u32..u32::MAX,
            ) {
                let len: usize = dims.iter().product();
                // A Weyl sequence over `u32`: every exponent class turns up.
                let data: Vec<f32> = (0..len as u32)
                    .map(|i| f32::from_bits(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9))))
                    .collect();
                let t = Tensor::from_vec(data, &dims).unwrap();
                let back = Tensor::from_content(&t.to_content()).unwrap();
                prop_assert_eq!(back.shape(), t.shape());
                prop_assert_eq!(bit_patterns(&back), bit_patterns(&t));
            }
        }
    }
}
