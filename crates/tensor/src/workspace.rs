//! Grow-only scratch arenas for the kernel hot path.
//!
//! Every wall-clock-critical kernel in this crate (the blocked GEMM in
//! [`crate::Tensor::matmul`], the im2col lowering, the packed transposes
//! behind the fused `matmul_tn_with`/`matmul_nt_with` variants) needs
//! short-lived `f32` scratch. Allocating that scratch per call dominated steady-state
//! training epochs, so kernels now draw it from a [`Workspace`]: a pool of
//! reusable buffers that only ever grows. After a warm-up pass the pool has
//! reached its high-water mark and subsequent epochs allocate nothing (see
//! `docs/performance.md` for the lifetime rules and the allocation-counting
//! test in `crates/tensor/tests/workspace_alloc.rs`).
//!
//! Two ways to use it:
//!
//! * **Implicit** — the plain [`Tensor::matmul`](crate::Tensor::matmul)
//!   and [`crate::conv2d_backward`] draw from a thread-local workspace,
//!   so their call sites reuse scratch with no signature changes.
//! * **Explicit** — the `*_with` kernel variants (e.g.
//!   [`Tensor::matmul_with`](crate::Tensor::matmul_with),
//!   [`crate::conv2d_gemm_with`]) take `&mut Workspace`, letting a layer or
//!   a benchmark own and audit its arena.
//!
//! Workspace contents are *never* read before being overwritten: kernels
//! treat checked-out buffers as uninitialised memory, which keeps results
//! bit-identical whether scratch is fresh or recycled.

use std::cell::RefCell;

/// A grow-only pool of reusable `f32` scratch buffers.
///
/// A kernel checks a buffer out with `take` (recycling the best-fitting
/// retired buffer, growing it if needed) and returns it with `give`.
/// Buffers keep their capacity across the round-trip, so a steady-state
/// caller whose buffer sizes have stabilised performs no allocations.
///
/// # Example
///
/// ```
/// use pipetune_tensor::{Tensor, Workspace};
///
/// let mut ws = Workspace::new();
/// let (a, b) = (Tensor::ones(&[4, 8]), Tensor::ones(&[8, 4]));
/// // Both products draw their scratch from `ws`; the second reuses it.
/// let c = a.matmul_with(&b, &mut ws)?;
/// assert_eq!(c, a.matmul_with(&b, &mut ws)?);
/// # Ok::<(), pipetune_tensor::TensorError>(())
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Retired buffers, unordered. Small (a handful of entries), so a
    /// linear best-fit scan beats any indexed structure.
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace { pool: Vec::new() }
    }

    /// Checks out a buffer of exactly `len` elements.
    ///
    /// The contents are unspecified (recycled buffers carry stale data);
    /// callers must treat the buffer as uninitialised and fully overwrite
    /// whatever region they read back. Best-fit selection: the smallest
    /// retired buffer that already holds `len` elements, else the largest
    /// one (grown in place), so repeated identical call sequences converge
    /// on a stable buffer-to-role assignment and stop allocating.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        let fitting = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let chosen = fitting.or_else(|| {
            self.pool.iter().enumerate().max_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
        });
        let mut buf = match chosen {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        buf.resize(len, 0.0);
        buf
    }

    /// Checks out a buffer of `len` elements, zero-filled.
    pub(crate) fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub(crate) fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }
}

/// Workspaces hold no data of semantic value, so a clone starts empty; a
/// cloned layer or model re-warms its own arena. This keeps checkpoint
/// clones (which snapshot layers mid-run) from duplicating scratch memory.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Workspace::new()
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's shared kernel workspace.
///
/// The plain (`Workspace`-less) kernel entry points use this so every call
/// site on a thread shares one grow-only arena. Re-entrant use from inside
/// `f` would double-borrow, so kernels never call back into
/// `with_thread_local` while holding the borrow.
pub(crate) fn with_thread_local<T>(f: impl FnOnce(&mut Workspace) -> T) -> T {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total `f32` capacity the pool holds (the arena's high-water
    /// footprint while idle).
    fn capacity(ws: &Workspace) -> usize {
        ws.pool.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn take_give_recycles_capacity() {
        let mut ws = Workspace::new();
        let a = ws.take(100);
        let ptr = a.as_ptr();
        ws.give(a);
        let b = ws.take(50);
        assert_eq!(b.as_ptr(), ptr, "must reuse the retired heap block");
        assert_eq!(b.len(), 50);
        ws.give(b);
        assert_eq!(ws.pool.len(), 1);
        assert!(capacity(&ws) >= 100);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take(8);
        a.fill(7.5);
        ws.give(a);
        let b = ws.take_zeroed(8);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        ws.give(vec![0.0; 64]);
        assert!(ws.clone().pool.is_empty());
    }

    #[test]
    fn thread_local_workspace_persists_across_calls() {
        let cap0 = with_thread_local(|ws| {
            let b = ws.take(4096);
            ws.give(b);
            capacity(ws)
        });
        let cap1 = with_thread_local(|ws| capacity(ws));
        assert_eq!(cap0, cap1);
        assert!(cap1 >= 4096);
    }
}
