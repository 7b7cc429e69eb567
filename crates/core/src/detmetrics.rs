//! Detection-quality metrics: TPR, FPR, precision, ROC AUC and
//! per-severity true-positive rates (Eq. 3 and Table V's columns).

use perfbug_ml::metrics::{roc_auc, roc_curve, RocPoint};

use crate::bugs::Severity;

/// One test-time decision of a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Continuous bug-likelihood score (higher = more suspicious).
    pub score: f64,
    /// The detector's binary verdict at its operating point.
    pub flagged: bool,
    /// Ground truth: whether a bug was actually injected.
    pub has_bug: bool,
    /// Severity of the injected bug (`None` for bug-free designs).
    pub severity: Option<Severity>,
}

/// Aggregated detection metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionMetrics {
    /// False-positive rate `FP / N`.
    pub fpr: f64,
    /// True-positive rate (recall) `TP / P`.
    pub tpr: f64,
    /// Precision `TP / (TP + FP)`; `None` when nothing is flagged, since
    /// a detector that never answers "bug" has no precision to report.
    pub precision: Option<f64>,
    /// Area under the ROC curve over the scores.
    pub roc_auc: f64,
    /// TPR restricted to each severity bucket (order of
    /// [`Severity::all`]); `None` when the bucket has no samples.
    pub tpr_by_severity: [Option<f64>; 4],
    /// Number of positive test cases.
    pub positives: usize,
    /// Number of negative test cases.
    pub negatives: usize,
}

impl DetectionMetrics {
    /// Computes all metrics from pooled decisions.
    ///
    /// # Panics
    ///
    /// Panics if `decisions` is empty.
    pub fn from_decisions(decisions: &[Decision]) -> Self {
        assert!(!decisions.is_empty(), "no decisions to score");
        let positives = decisions.iter().filter(|d| d.has_bug).count();
        let negatives = decisions.len() - positives;
        let tp = decisions.iter().filter(|d| d.has_bug && d.flagged).count();
        let fp = decisions.iter().filter(|d| !d.has_bug && d.flagged).count();
        let tpr = if positives > 0 {
            tp as f64 / positives as f64
        } else {
            0.0
        };
        let fpr = if negatives > 0 {
            fp as f64 / negatives as f64
        } else {
            0.0
        };
        let precision = (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64);
        let scores: Vec<f64> = decisions.iter().map(|d| d.score).collect();
        let labels: Vec<bool> = decisions.iter().map(|d| d.has_bug).collect();
        let auc = roc_auc(&scores, &labels);

        let mut tpr_by_severity = [None; 4];
        for (i, sev) in Severity::all().into_iter().enumerate() {
            let bucket: Vec<&Decision> = decisions
                .iter()
                .filter(|d| d.severity == Some(sev))
                .collect();
            if !bucket.is_empty() {
                let hits = bucket.iter().filter(|d| d.flagged).count();
                tpr_by_severity[i] = Some(hits as f64 / bucket.len() as f64);
            }
        }
        DetectionMetrics {
            fpr,
            tpr,
            precision,
            roc_auc: auc,
            tpr_by_severity,
            positives,
            negatives,
        }
    }

    /// ROC curve over the pooled decision scores.
    pub fn roc(decisions: &[Decision]) -> Vec<RocPoint> {
        let scores: Vec<f64> = decisions.iter().map(|d| d.score).collect();
        let labels: Vec<bool> = decisions.iter().map(|d| d.has_bug).collect();
        roc_curve(&scores, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(score: f64, flagged: bool, has_bug: bool, severity: Option<Severity>) -> Decision {
        Decision {
            score,
            flagged,
            has_bug,
            severity,
        }
    }

    #[test]
    fn perfect_detector() {
        let decisions = vec![
            d(2.0, true, true, Some(Severity::High)),
            d(1.5, true, true, Some(Severity::Low)),
            d(0.2, false, false, None),
            d(0.1, false, false, None),
        ];
        let m = DetectionMetrics::from_decisions(&decisions);
        assert_eq!(m.tpr, 1.0);
        assert_eq!(m.fpr, 0.0);
        assert_eq!(m.precision, Some(1.0));
        assert_eq!(m.roc_auc, 1.0);
        assert_eq!(m.tpr_by_severity[3], Some(1.0)); // High
        assert_eq!(m.tpr_by_severity[0], None); // no Very-Low samples
        assert_eq!(m.positives, 2);
        assert_eq!(m.negatives, 2);
    }

    #[test]
    fn partial_detector() {
        let decisions = vec![
            d(2.0, true, true, Some(Severity::High)),
            d(0.5, false, true, Some(Severity::VeryLow)),
            d(1.2, true, false, None),
            d(0.1, false, false, None),
        ];
        let m = DetectionMetrics::from_decisions(&decisions);
        assert!((m.tpr - 0.5).abs() < 1e-12);
        assert!((m.fpr - 0.5).abs() < 1e-12);
        assert!((m.precision.expect("two flagged") - 0.5).abs() < 1e-12);
        assert_eq!(m.tpr_by_severity[0], Some(0.0));
        assert_eq!(m.tpr_by_severity[3], Some(1.0));
    }

    #[test]
    fn nothing_flagged_has_no_precision() {
        let decisions = vec![
            d(0.1, false, true, Some(Severity::Low)),
            d(0.0, false, false, None),
        ];
        let m = DetectionMetrics::from_decisions(&decisions);
        assert_eq!(m.precision, None);
        assert_eq!(m.tpr, 0.0);
    }

    #[test]
    fn roc_is_exposed() {
        let decisions = vec![
            d(0.9, true, true, None),
            d(0.8, true, false, None),
            d(0.3, false, true, None),
            d(0.1, false, false, None),
        ];
        let curve = DetectionMetrics::roc(&decisions);
        assert!(curve.len() >= 3);
    }

    #[test]
    fn roc_tied_scores_one_point_per_threshold() {
        // Five decisions but only two distinct scores: the curve must have
        // exactly one point per threshold (plus the (0,0) anchor) with the
        // tied group consumed atomically — not one point per decision.
        let decisions = vec![
            d(0.7, true, true, None),
            d(0.7, true, false, None),
            d(0.7, true, true, None),
            d(0.2, false, false, None),
            d(0.2, false, true, None),
        ];
        let curve = DetectionMetrics::roc(&decisions);
        let expected = vec![
            perfbug_ml::metrics::RocPoint {
                fpr: 0.0,
                tpr: 0.0,
                threshold: f64::INFINITY,
            },
            perfbug_ml::metrics::RocPoint {
                fpr: 0.5,
                tpr: 2.0 / 3.0,
                threshold: 0.7,
            },
            perfbug_ml::metrics::RocPoint {
                fpr: 1.0,
                tpr: 1.0,
                threshold: 0.2,
            },
        ];
        assert_eq!(curve, expected);
    }
}
