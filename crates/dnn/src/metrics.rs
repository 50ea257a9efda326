/// Metrics produced by one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochMetrics {
    /// Mean training loss over all mini-batches.
    pub loss: f32,
    /// Training accuracy over the epoch (fraction in `[0, 1]`).
    pub accuracy: f32,
    /// Number of mini-batch iterations executed (the paper's `N`-iteration
    /// SGD sync cadence; feeds the cluster cost model).
    pub iterations: usize,
    /// Number of examples processed.
    pub examples: usize,
}

impl EpochMetrics {
    /// Folds per-batch results into running totals.
    pub(crate) fn accumulate(&mut self, batch_loss: f32, correct: usize, batch_len: usize) {
        // Store sums; `finalize` turns them into means.
        self.loss += batch_loss * batch_len as f32;
        self.accuracy += correct as f32;
        self.iterations += 1;
        self.examples += batch_len;
    }

    /// Converts accumulated sums into means. Idempotent only once.
    pub(crate) fn finalize(mut self) -> Self {
        if self.examples > 0 {
            self.loss /= self.examples as f32;
            self.accuracy /= self.examples as f32;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_then_finalize_computes_means() {
        let mut m = EpochMetrics::default();
        m.accumulate(2.0, 3, 4); // loss sum 8, correct 3
        m.accumulate(1.0, 4, 4); // loss sum 12, correct 7
        let m = m.finalize();
        assert!((m.loss - 1.5).abs() < 1e-6);
        assert!((m.accuracy - 7.0 / 8.0).abs() < 1e-6);
        assert_eq!(m.iterations, 2);
        assert_eq!(m.examples, 8);
    }
}
