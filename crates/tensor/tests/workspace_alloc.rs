//! Proves the workspace contract from `docs/performance.md`: once buffers
//! are warm, the `_with`/`_into` kernel entry points draw every scratch
//! buffer from the caller's [`Workspace`] and touch the global allocator
//! only for the documented output allocation (or not at all).
//!
//! The whole file is a single `#[test]` on purpose: the counting
//! `#[global_allocator]` below is process-global state, and a second test
//! running in a sibling thread would pollute the armed byte counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pipetune_tensor::{
    conv2d_backward_with, conv2d_gemm_with, im2col, im2col_with, Tensor, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts bytes requested from the system allocator while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn allocated_during(f: impl FnOnce()) -> u64 {
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst)
}

#[test]
fn warm_workspace_kernels_do_not_allocate() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::randn(&[24, 96], 1.0, &mut rng);
    let b = Tensor::randn(&[96, 80], 1.0, &mut rng);
    let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
    let w = Tensor::randn(&[8, 3, 3, 3], 0.5, &mut rng);
    let bias = Tensor::randn(&[8], 0.1, &mut rng);

    let mut ws = Workspace::new();
    let mut prod = Tensor::zeros(&[1]);
    let mut cols = Tensor::zeros(&[1]);

    // Warm-up: grows `prod`/`cols` buffers and the workspace pool to
    // steady state, exactly like a training loop's first iteration.
    a.matmul_into(&b, &mut prod, &mut ws).expect("matmul_into");
    im2col_with(&x, 3, 3, &mut cols).expect("im2col_with");
    let expected_conv = conv2d_gemm_with(&x, &w, &bias, &mut ws).expect("conv2d_gemm_with");
    let expected_prod = a.matmul(&b).expect("matmul");
    let expected_cols = im2col(&x, 3, 3).expect("im2col");

    // Steady state: `matmul_into` and `im2col_with` reuse every buffer.
    let bytes = allocated_during(|| {
        for _ in 0..10 {
            a.matmul_into(&b, &mut prod, &mut ws).expect("matmul_into");
            im2col_with(&x, 3, 3, &mut cols).expect("im2col_with");
        }
    });
    assert_eq!(bytes, 0, "warm matmul_into/im2col_with must not allocate");
    assert_eq!(prod.data(), expected_prod.data());
    assert_eq!(cols.data(), expected_cols.data());

    // `conv2d_gemm_with` documents exactly one allocation per call: the
    // returned output tensor. Scratch (cols, wmat, prod) must all come
    // from the pool, so per-call bytes stay within the output tensor plus
    // a small constant for its shape bookkeeping — in both lowerings:
    // 8 output channels run `W · colsᵀ`, 16 run `cols · Wᵀ`.
    let wide_w = Tensor::randn(&[16, 3, 3, 3], 0.5, &mut rng);
    let wide_bias = Tensor::randn(&[16], 0.1, &mut rng);
    let reps = 10u64;
    for (w, bias, expected) in [
        (&w, &bias, expected_conv),
        (&wide_w, &wide_bias, conv2d_gemm_with(&x, &wide_w, &wide_bias, &mut ws).expect("warm-up")),
    ] {
        let out_bytes = expected.data().len() as u64 * 4;
        let bytes = allocated_during(|| {
            for _ in 0..reps {
                let out = conv2d_gemm_with(&x, w, bias, &mut ws).expect("conv2d_gemm_with");
                assert_eq!(out.data(), expected.data());
            }
        });
        assert!(
            bytes <= reps * (out_bytes + 256),
            "conv2d_gemm_with allocated {bytes} bytes over {reps} calls; \
             budget is the output tensor ({out_bytes} bytes) plus shape bookkeeping per call"
        );
    }

    // `conv2d_backward_with` allocates the tensors it returns and nothing
    // else: the im2col matrix comes from the pool, and a switched-off
    // input gradient is not allocated either.
    let grad = Tensor::randn(&[2, 8, 10, 10], 1.0, &mut rng);
    conv2d_backward_with(&x, &w, &grad, true, &mut ws).expect("warm-up");
    for input_grad in [true, false] {
        let returned = w.len() + 8 + if input_grad { x.len() } else { 0 };
        let budget = reps * (returned as u64 * 4 + 3 * 256);
        let bytes = allocated_during(|| {
            for _ in 0..reps {
                let grads =
                    conv2d_backward_with(&x, &w, &grad, input_grad, &mut ws).expect("backward");
                assert_eq!(grads.grad_input.is_some(), input_grad);
            }
        });
        assert!(
            bytes <= budget,
            "conv2d_backward_with(input_grad = {input_grad}) allocated {bytes} bytes over \
             {reps} calls; budget is the returned tensors ({returned} floats) plus shape bookkeeping"
        );
    }

    // LeNet's first convolution at the sessions' largest batch, as
    // `LeNet5::backward` calls it: a 12×12 plane takes the direct kernel
    // gradient, whose compaction list and padded last sample come from the
    // pool as well.
    let x1 = Tensor::randn(&[256, 1, 16, 16], 1.0, &mut rng);
    let w1 = Tensor::randn(&[6, 1, 5, 5], 0.5, &mut rng);
    let grad1 = Tensor::randn(&[256, 6, 12, 12], 1.0, &mut rng);
    let warm = conv2d_backward_with(&x1, &w1, &grad1, false, &mut ws).expect("warm-up");
    let returned = (w1.len() + 6) as u64 * 4;
    let bytes = allocated_during(|| {
        for _ in 0..reps {
            let grads = conv2d_backward_with(&x1, &w1, &grad1, false, &mut ws).expect("backward");
            assert!(grads.grad_input.is_none());
            assert_eq!(grads.grad_weight.data(), warm.grad_weight.data());
        }
    });
    assert!(
        bytes <= reps * (returned + 2 * 256),
        "conv1's backward at batch 256 allocated {bytes} bytes over {reps} calls; budget is \
         the returned tensors ({returned} bytes) plus shape bookkeeping"
    );
}
