//! IDX file parsing — the format real MNIST/Fashion-MNIST ship in.
//!
//! The synthetic generators stand in for the datasets in this offline
//! reproduction, but a downstream user with `train-images-idx3-ubyte` on
//! disk can load the real thing through [`dataset_from_idx`]. Format per
//! Yann LeCun's spec: a 4-byte magic `[0, 0, dtype, ndims]`, `ndims`
//! big-endian `u32` dimensions, then row-major payload.

use std::path::Path;

use pipetune_dnn::{Dataset, DnnError, Features};
use pipetune_tensor::Tensor;

/// A parsed IDX payload: dimensions plus flat `f32` data (u8 payloads are
/// scaled to `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
struct IdxArray {
    /// Dimension sizes, outermost first.
    pub dims: Vec<usize>,
    /// Flattened values (ubyte payloads are scaled to `[0, 1]`).
    pub data: Vec<f32>,
    /// IDX element-type byte (0x08 = ubyte, 0x0D = float, ...).
    pub dtype: u8,
}

fn corrupt(reason: impl Into<String>) -> DnnError {
    DnnError::InvalidDataset { reason: reason.into() }
}

/// Parses IDX bytes.
///
/// Supports the unsigned-byte (0x08), signed-byte (0x09), int (0x0C) and
/// float (0x0D) element types; ubyte values are scaled by 1/255.
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] on truncated input, bad magic,
/// unsupported element types or size mismatches.
fn parse_idx(bytes: &[u8]) -> Result<IdxArray, DnnError> {
    if bytes.len() < 4 {
        return Err(corrupt("idx file shorter than its magic"));
    }
    if bytes[0] != 0 || bytes[1] != 0 {
        return Err(corrupt("bad idx magic"));
    }
    let dtype = bytes[2];
    let ndims = bytes[3] as usize;
    let header_len = 4 + 4 * ndims;
    if bytes.len() < header_len {
        return Err(corrupt("idx header truncated"));
    }
    let mut dims = Vec::with_capacity(ndims);
    for d in 0..ndims {
        let off = 4 + 4 * d;
        let dim = u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        dims.push(dim as usize);
    }
    // The header is input: its dimensions may not even multiply.
    let count = dims
        .iter()
        .try_fold(1usize, |count, &dim| count.checked_mul(dim))
        .ok_or_else(|| corrupt(format!("idx dimensions {dims:?} overflow the element count")))?;
    let payload = &bytes[header_len..];
    let data = match dtype {
        0x08 => {
            if payload.len() != count {
                return Err(corrupt(format!(
                    "expected {count} ubyte elements, found {}",
                    payload.len()
                )));
            }
            payload.iter().map(|&b| f32::from(b) / 255.0).collect()
        }
        0x09 => {
            if payload.len() != count {
                return Err(corrupt("sbyte payload size mismatch"));
            }
            payload.iter().map(|&b| f32::from(b as i8)).collect()
        }
        0x0C => {
            if Some(payload.len()) != count.checked_mul(4) {
                return Err(corrupt("int payload size mismatch"));
            }
            payload
                .chunks_exact(4)
                .map(|c| i32::from_be_bytes([c[0], c[1], c[2], c[3]]) as f32)
                .collect()
        }
        0x0D => {
            if Some(payload.len()) != count.checked_mul(4) {
                return Err(corrupt("float payload size mismatch"));
            }
            payload.chunks_exact(4).map(|c| f32::from_be_bytes([c[0], c[1], c[2], c[3]])).collect()
        }
        other => return Err(corrupt(format!("unsupported idx element type 0x{other:02x}"))),
    };
    Ok(IdxArray { dims, data, dtype })
}

/// Loads and parses one IDX file.
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] on I/O failures or malformed
/// content.
fn load_idx(path: &Path) -> Result<IdxArray, DnnError> {
    let bytes =
        std::fs::read(path).map_err(|e| corrupt(format!("cannot read {}: {e}", path.display())))?;
    parse_idx(&bytes)
}

/// Builds a [`Dataset`] from an IDX image file (`[n, h, w]` ubyte) and an
/// IDX label file (`[n]` ubyte) — the real MNIST layout.
///
/// # Errors
///
/// Returns [`DnnError::InvalidDataset`] when the files disagree on the
/// example count, the images are not rank 3, or labels exceed `classes`.
pub fn dataset_from_idx(
    images_path: &Path,
    labels_path: &Path,
    classes: usize,
) -> Result<Dataset, DnnError> {
    let images = load_idx(images_path)?;
    let labels = load_idx(labels_path)?;
    dataset_from_arrays(images, labels, classes)
}

/// In-memory variant of [`dataset_from_idx`] (used by tests and loaders
/// that fetch bytes elsewhere).
///
/// # Errors
///
/// Same conditions as [`dataset_from_idx`].
fn dataset_from_arrays(
    images: IdxArray,
    labels: IdxArray,
    classes: usize,
) -> Result<Dataset, DnnError> {
    if images.dims.len() != 3 {
        return Err(corrupt(format!("images must be rank 3, got {:?}", images.dims)));
    }
    if labels.dims.len() != 1 {
        return Err(corrupt(format!("labels must be rank 1, got {:?}", labels.dims)));
    }
    let (n, h, w) = (images.dims[0], images.dims[1], images.dims[2]);
    if labels.dims[0] != n {
        return Err(corrupt(format!("{n} images but {} labels", labels.dims[0])));
    }
    let tensor = Tensor::from_vec(images.data, &[n, 1, h, w])?;
    // Label files store class ids; undo the unit scaling ubyte images get.
    let scale = if labels.dtype == 0x08 { 255.0 } else { 1.0 };
    let labels: Vec<usize> = labels.data.iter().map(|&v| (v * scale).round() as usize).collect();
    Dataset::new(Features::Images(tensor), labels, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds IDX bytes for a ubyte array.
    fn idx_ubyte(dims: &[u32], payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0, 0, 0x08, dims.len() as u8];
        for d in dims {
            out.extend_from_slice(&d.to_be_bytes());
        }
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn parses_ubyte_images_scaled_to_unit() {
        let bytes = idx_ubyte(&[2, 2, 2], &[0, 255, 128, 0, 1, 2, 3, 4]);
        let arr = parse_idx(&bytes).unwrap();
        assert_eq!(arr.dims, vec![2, 2, 2]);
        assert_eq!(arr.data[1], 1.0);
        assert!((arr.data[2] - 128.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn parses_float_and_int_payloads() {
        let mut bytes = vec![0, 0, 0x0D, 1, 0, 0, 0, 2];
        bytes.extend_from_slice(&1.5f32.to_be_bytes());
        bytes.extend_from_slice(&(-2.0f32).to_be_bytes());
        let arr = parse_idx(&bytes).unwrap();
        assert_eq!(arr.data, vec![1.5, -2.0]);

        let mut bytes = vec![0, 0, 0x0C, 1, 0, 0, 0, 1];
        bytes.extend_from_slice(&(-7i32).to_be_bytes());
        assert_eq!(parse_idx(&bytes).unwrap().data, vec![-7.0]);
    }

    #[test]
    fn rejects_malformed_headers_and_payloads() {
        assert!(parse_idx(&[]).is_err());
        assert!(parse_idx(&[1, 2, 3, 4]).is_err()); // bad magic
        assert!(parse_idx(&[0, 0, 0x08, 1, 0, 0]).is_err()); // truncated dims
        assert!(parse_idx(&idx_ubyte(&[4], &[1, 2, 3])).is_err()); // short payload
        assert!(parse_idx(&[0, 0, 0x42, 0]).is_err()); // unknown dtype
    }

    #[test]
    fn builds_a_trainable_dataset_from_idx_pairs() {
        let images = parse_idx(&idx_ubyte(&[3, 2, 2], &[10; 12])).unwrap();
        let labels = parse_idx(&idx_ubyte(&[3], &[0, 1, 0])).unwrap();
        let data = dataset_from_arrays(images, labels, 2).unwrap();
        assert_eq!(data.len(), 3);
        assert_eq!(data.num_classes(), 2);
        assert_eq!(data.labels(), &[0, 1, 0]);
    }

    #[test]
    fn count_mismatch_and_bad_labels_are_rejected() {
        let images = parse_idx(&idx_ubyte(&[2, 2, 2], &[0; 8])).unwrap();
        let labels = parse_idx(&idx_ubyte(&[3], &[0, 1, 0])).unwrap();
        assert!(dataset_from_arrays(images.clone(), labels, 2).is_err());
        let bad_labels = parse_idx(&idx_ubyte(&[2], &[0, 9])).unwrap();
        assert!(dataset_from_arrays(images, bad_labels, 2).is_err());
    }

    /// A header whose dimensions overflow their own product: `2^22 · 2^21 ·
    /// 2^21 = 2^64` wraps to the 0 elements an empty payload has, and with
    /// 4 Mi matching labels used to load as a dataset of 4 194 304 examples
    /// over an empty tensor (a multiplication panic in a debug build).
    #[test]
    fn a_header_cannot_overflow_its_own_size() {
        let images = idx_ubyte(&[1 << 22, 1 << 21, 1 << 21], &[]);
        let err = parse_idx(&images).unwrap_err();
        assert!(matches!(err, DnnError::InvalidDataset { .. }), "{err:?}");
        // Four-byte elements overflow a factor of four sooner.
        for dtype in [0x0C, 0x0D] {
            let mut bytes = vec![0, 0, dtype, 2];
            bytes.extend_from_slice(&(1u32 << 31).to_be_bytes());
            bytes.extend_from_slice(&(1u32 << 31).to_be_bytes());
            assert!(parse_idx(&bytes).is_err());
        }
        // Past the parser too: the tensor refuses dimensions that do not
        // multiply, whatever the data's length.
        let unchecked =
            IdxArray { dims: vec![1 << 22, 1 << 21, 1 << 21], data: vec![], dtype: 0x08 };
        let labels = IdxArray { dims: vec![1 << 22], data: vec![0.0; 1 << 22], dtype: 0x08 };
        assert!(dataset_from_arrays(unchecked, labels, 10).is_err());
    }

    /// Seeded mutants of a small valid image / label pair — header bytes
    /// flipped, every rank, truncation and extension at every offset — are
    /// rejected with the typed error or load as a dataset whose tensor is
    /// as long as its header says; both happen, nothing panics.
    #[test]
    fn mutated_idx_pairs_are_rejected_or_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (n, h, w) = (4u32, 3u32, 2u32);
        let images = idx_ubyte(&[n, h, w], &(0..24).collect::<Vec<u8>>());
        let labels = idx_ubyte(&[n], &[0, 1, 2, 1]);
        let mut mutants: Vec<(Vec<u8>, Vec<u8>)> = vec![(images.clone(), labels.clone())];
        for rank in 0..=255u8 {
            let mut bytes = images.clone();
            bytes[3] = rank;
            mutants.push((bytes, labels.clone()));
        }
        for stock in [&images, &labels] {
            for cut in 0..stock.len() {
                let pair = |bytes: Vec<u8>| {
                    if std::ptr::eq(stock, &images) {
                        (bytes, labels.clone())
                    } else {
                        (images.clone(), bytes)
                    }
                };
                mutants.push(pair(stock[..cut].to_vec()));
                // The same bytes, one more in the middle.
                let mut longer = stock.clone();
                longer.insert(cut, stock[cut]);
                mutants.push(pair(longer));
            }
        }
        let mut rng = StdRng::seed_from_u64(0x1d);
        for _ in 0..2000 {
            let (mut a, mut b) = (images.clone(), labels.clone());
            for _ in 0..rng.gen_range(1..4u32) {
                let bytes = if rng.gen_bool(0.7) { &mut a } else { &mut b };
                // Mostly the header: that is where the sizes are.
                let at: usize =
                    if rng.gen_bool(0.8) { rng.gen_range(0..16) } else { rng.gen_range(0..64) };
                let at = at % bytes.len();
                match rng.gen_range(0..3u32) {
                    0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                    1 => bytes[at] = [0x00, 0xff, 0x80, 0x7f][rng.gen_range(0..4usize)],
                    _ => bytes[at] = rng.gen_range(0..=255u32) as u8,
                }
            }
            mutants.push((a, b));
        }

        let (mut loaded, mut rejected) = (0, 0);
        for (images, labels) in &mutants {
            let outcome = std::panic::catch_unwind(|| {
                let images = parse_idx(images)?;
                let (dims, labels) = (images.dims.clone(), parse_idx(labels)?);
                dataset_from_arrays(images, labels, 3).map(|data| (dims, data))
            });
            match outcome.unwrap_or_else(|_| panic!("panicked on {images:?} / {labels:?}")) {
                Ok((dims, data)) => {
                    let Features::Images(tensor) = data.features() else { panic!("images") };
                    assert_eq!(tensor.data().len(), dims[0] * dims[1] * dims[2], "{dims:?}");
                    assert_eq!(data.len(), dims[0]);
                    loaded += 1;
                }
                Err(DnnError::InvalidDataset { .. } | DnnError::Tensor(_)) => rejected += 1,
                Err(other) => panic!("untyped rejection {other:?}"),
            }
        }
        println!("{} idx mutants: {loaded} loaded, {rejected} rejected", mutants.len());
        assert!(loaded > 10 && rejected > 1000, "{loaded} loaded, {rejected} rejected");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pipetune_idx_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("images.idx");
        std::fs::write(&path, idx_ubyte(&[1, 2, 2], &[1, 2, 3, 4])).unwrap();
        let arr = load_idx(&path).unwrap();
        assert_eq!(arr.dims, vec![1, 2, 2]);
        std::fs::remove_file(&path).ok();
        assert!(load_idx(&dir.join("missing.idx")).is_err());
    }
}
