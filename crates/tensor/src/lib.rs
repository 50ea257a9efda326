//! Dense `f32` tensor math substrate for the PipeTune reproduction.
//!
//! The paper trains its workloads on BigDL/TensorFlow; this crate provides the
//! minimal-but-real linear-algebra core the `pipetune-dnn` framework is built
//! on: shape-checked dense tensors, matrix multiplication, 2-D
//! convolution/pooling primitives and seeded random initialisation.
//!
//! Everything is deterministic: all random constructors take an explicit RNG
//! so experiments can be reproduced bit-for-bit.
//!
//! # Example
//!
//! ```
//! use pipetune_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let identity = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
//! let c = a.matmul(&identity)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), pipetune_tensor::TensorError>(())
//! ```

mod conv;
mod error;
mod gemm;
mod im2col;
mod ops;
mod shape;
mod tensor;
mod workspace;

pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_with, max_pool2d, max_pool2d_backward, Conv2dGrads,
};
pub use error::TensorError;
pub use im2col::{conv2d_gemm_with, im2col, im2col_with};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;
