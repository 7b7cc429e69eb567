//! Property-based tests for the detection core: Eq. (1), stage-2 rules and
//! detection metrics.

use perfbug_core::detmetrics::{Decision, DetectionMetrics};
use perfbug_core::stage1::inference_error;
use perfbug_core::stage2::{Stage2Classifier, Stage2Params};
use proptest::prelude::*;

fn series(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..4.0f64, len)
}

proptest! {
    #[test]
    fn eq1_nonnegative_and_zero_iff_equal(a in series(12)) {
        prop_assert!(inference_error(&a, &a).abs() < 1e-12);
        let shifted: Vec<f64> = a.iter().map(|v| v + 0.5).collect();
        let err = inference_error(&a, &shifted);
        prop_assert!(err > 0.0);
        // Shifting every step by c costs about c per trapezoid: (T-1)*c.
        let expect = (a.len() - 1) as f64 * 0.5;
        prop_assert!((err - expect).abs() < 1e-9);
    }

    #[test]
    fn eq1_symmetric_and_scales(a in series(10), b in series(10), k in 1.0..5.0f64) {
        let e1 = inference_error(&a, &b);
        let e2 = inference_error(&b, &a);
        prop_assert!((e1 - e2).abs() < 1e-9, "Eq.(1) must be symmetric");
        let a_scaled: Vec<f64> = a.iter().map(|v| v * k).collect();
        let b_scaled: Vec<f64> = b.iter().map(|v| v * k).collect();
        let e3 = inference_error(&a_scaled, &b_scaled);
        prop_assert!((e3 - k * e1).abs() < 1e-6, "Eq.(1) is positively homogeneous");
    }

    #[test]
    fn eq1_never_averages_out_spikes(base in series(20), spike in 5.0..50.0f64) {
        // The paper prefers Eq.(1) over MSE because one bad step must not
        // vanish: the error strictly grows with the spike size.
        let mut spiked = base.clone();
        spiked[10] += spike;
        let small = inference_error(&base, &base);
        let big = inference_error(&base, &spiked);
        prop_assert!(big >= spike - 1e-9, "spike of {spike} must contribute fully");
        prop_assert!(big > small);
    }

    #[test]
    fn stage2_score_monotone_in_errors(
        pos in prop::collection::vec(prop::collection::vec(1.0..3.0f64, 4), 3..8),
        neg in prop::collection::vec(prop::collection::vec(0.0..0.5f64, 4), 3..8),
        probe in 0usize..4,
        bump in 0.1..10.0f64,
    ) {
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        let base = vec![0.2; 4];
        let mut worse = base.clone();
        worse[probe] += bump;
        prop_assert!(
            clf.score(&worse) >= clf.score(&base) - 1e-12,
            "inflating any probe's error must not lower the bug score"
        );
    }

    #[test]
    fn stage2_classify_agrees_with_score(
        pos in prop::collection::vec(prop::collection::vec(1.0..3.0f64, 3), 3..6),
        neg in prop::collection::vec(prop::collection::vec(0.0..0.5f64, 3), 3..6),
        test in prop::collection::vec(0.0..6.0f64, 3),
    ) {
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        prop_assert_eq!(clf.classify(&test), clf.score(&test) >= 1.0);
    }

    #[test]
    fn metrics_bounds(
        scores in prop::collection::vec(0.0..5.0f64, 4..24),
        labels in prop::collection::vec(any::<bool>(), 4..24),
    ) {
        let n = scores.len().min(labels.len());
        let decisions: Vec<Decision> = (0..n)
            .map(|i| Decision {
                score: scores[i],
                flagged: scores[i] >= 1.0,
                has_bug: labels[i],
                severity: None,
            })
            .collect();
        let m = DetectionMetrics::from_decisions(&decisions);
        for v in [m.tpr, m.fpr, m.roc_auc] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        let flagged = decisions.iter().any(|d| d.flagged);
        prop_assert_eq!(m.precision.is_some(), flagged);
        if let Some(p) = m.precision {
            prop_assert!((0.0..=1.0).contains(&p));
        }
        prop_assert_eq!(m.positives + m.negatives, n);
    }
}
