//! Classification evaluation beyond plain accuracy: confusion matrix,
//! per-class precision/recall and macro-F1.
//!
//! The paper reports accuracy only; these metrics support deeper analysis of
//! what the tuners' selected models actually learned (used by the examples
//! and tests to verify that accuracy gains are not single-class artefacts).

use crate::DnnError;

/// A `classes × classes` confusion matrix; rows are true labels, columns are
/// predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Builds a matrix from parallel prediction/label slices.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidDataset`] when lengths differ, the inputs
    /// are empty, or any index is out of range.
    pub(crate) fn from_predictions(
        predictions: &[usize],
        labels: &[usize],
        classes: usize,
    ) -> Result<Self, DnnError> {
        if predictions.len() != labels.len() {
            return Err(DnnError::InvalidDataset {
                reason: format!("{} predictions but {} labels", predictions.len(), labels.len()),
            });
        }
        if predictions.is_empty() || classes == 0 {
            return Err(DnnError::InvalidDataset { reason: "empty evaluation".into() });
        }
        let mut counts = vec![0u64; classes * classes];
        for (&p, &l) in predictions.iter().zip(labels) {
            if p >= classes || l >= classes {
                return Err(DnnError::InvalidDataset {
                    reason: format!("index out of range: pred {p}, label {l}, classes {classes}"),
                });
            }
            counts[l * classes + p] += 1;
        }
        Ok(ConfusionMatrix { classes, counts })
    }

    /// Count of examples with true label `actual` predicted as `predicted`.
    fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.classes + predicted]
    }

    /// Precision of one class (0 when the class is never predicted).
    fn precision(&self, class: usize) -> f64 {
        let tp = self.count(class, class) as f64;
        let predicted: u64 = (0..self.classes).map(|a| self.count(a, class)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp / predicted as f64
        }
    }

    /// Recall of one class (0 when the class never occurs).
    fn recall(&self, class: usize) -> f64 {
        let tp = self.count(class, class) as f64;
        let actual: u64 = (0..self.classes).map(|p| self.count(class, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp / actual as f64
        }
    }

    /// F1 score of one class.
    fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean F1 over all classes.
    pub fn macro_f1(&self) -> f64 {
        (0..self.classes).map(|c| self.f1(c)).sum::<f64>() / self.classes as f64
    }

    /// The class most often confused *for* `class` (highest off-diagonal
    /// column entry), if any misprediction exists.
    pub fn top_confusion(&self, class: usize) -> Option<(usize, u64)> {
        (0..self.classes)
            .filter(|&p| p != class)
            .map(|p| (p, self.count(class, p)))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Total examples.
    pub(crate) fn total(m: &ConfusionMatrix) -> u64 {
        m.counts.iter().sum()
    }

    /// Overall accuracy: the diagonal's share of the examples.
    pub(crate) fn accuracy(m: &ConfusionMatrix) -> f64 {
        let correct: u64 = (0..m.classes).map(|c| m.count(c, c)).sum();
        correct as f64 / total(m).max(1) as f64
    }

    fn perfect() -> ConfusionMatrix {
        ConfusionMatrix::from_predictions(&[0, 1, 2, 0, 1, 2], &[0, 1, 2, 0, 1, 2], 3).unwrap()
    }

    #[test]
    fn perfect_predictions_score_one_everywhere() {
        let m = perfect();
        assert_eq!(accuracy(&m), 1.0);
        assert_eq!(m.macro_f1(), 1.0);
        assert_eq!(m.top_confusion(0), None);
    }

    #[test]
    fn counts_land_in_the_right_cells() {
        let m = ConfusionMatrix::from_predictions(&[1, 1, 0], &[0, 1, 0], 2).unwrap();
        assert_eq!(m.count(0, 1), 1); // true 0 predicted 1
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(1, 1), 1);
        assert_eq!(total(&m), 3);
        assert!((accuracy(&m) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_f1_match_hand_computation() {
        // class 0: tp=1, fp=0, fn=1 → precision 1, recall 0.5, f1 2/3.
        let m = ConfusionMatrix::from_predictions(&[1, 1, 0], &[0, 1, 0], 2).unwrap();
        assert_eq!(m.precision(0), 1.0);
        assert_eq!(m.recall(0), 0.5);
        assert!((m.f1(0) - 2.0 / 3.0).abs() < 1e-12);
        // class 1: tp=1, fp=1, fn=0 → precision 0.5, recall 1, f1 2/3.
        assert_eq!(m.precision(1), 0.5);
        assert_eq!(m.recall(1), 1.0);
    }

    #[test]
    fn degenerate_classes_score_zero_not_nan() {
        // Class 2 never occurs and is never predicted.
        let m = ConfusionMatrix::from_predictions(&[0, 1], &[0, 1], 3).unwrap();
        assert_eq!(m.precision(2), 0.0);
        assert_eq!(m.recall(2), 0.0);
        assert_eq!(m.f1(2), 0.0);
        assert!(m.macro_f1().is_finite());
    }

    #[test]
    fn top_confusion_identifies_the_dominant_error() {
        let m = ConfusionMatrix::from_predictions(&[1, 1, 2, 1], &[0, 0, 0, 1], 3).unwrap();
        assert_eq!(m.top_confusion(0), Some((1, 2)));
    }

    #[test]
    fn rejects_inconsistent_inputs() {
        assert!(ConfusionMatrix::from_predictions(&[0], &[0, 1], 2).is_err());
        assert!(ConfusionMatrix::from_predictions(&[], &[], 2).is_err());
        assert!(ConfusionMatrix::from_predictions(&[5], &[0], 2).is_err());
    }
}
