//! Quickstart: detect an injected performance bug in a "new" design.
//!
//! Runs the full two-stage methodology at a reduced scale: extract probes
//! from the synthetic suite, train per-probe GBT IPC models on the legacy
//! design sets, and test whether held-out bug types are detected on the
//! held-out (Set IV) microarchitectures.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{collect, evaluate_two_stage, CollectionConfig, ProbeScale};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::stage2::Stage2Params;
use perfbug_workloads::benchmark;

fn main() {
    // A small, fast configuration: two benchmarks, eight probes, one
    // mid-severity variant of each of the 14 bug types.
    let mut config = CollectionConfig::new(vec![EngineSpec::gbt250()], BugCatalog::core_small());
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite benchmark"),
        benchmark("462.libquantum").expect("suite benchmark"),
    ];
    config.max_probes = Some(8);

    println!(
        "collecting probe data (simulating {} bug variants)...",
        config.catalog.len()
    );
    let collection = collect(&config);
    println!(
        "collected {} probes x {} runs; stage-1 engine {} trained in {:?}",
        collection.probes.len(),
        collection.keys.len(),
        collection.engines[0].name,
        collection.engines[0].train_time,
    );

    let eval = evaluate_two_stage(&collection, 0, Stage2Params::default());
    println!("\nleave-one-bug-type-out detection on Set IV:");
    println!(
        "  TPR {:.3}  FPR {:.3}  precision {}  ROC AUC {:.3}",
        eval.metrics.tpr,
        eval.metrics.fpr,
        eval.metrics
            .precision
            .map_or("n/a".into(), |p| format!("{p:.3}")),
        eval.metrics.roc_auc
    );
    for fold in &eval.folds {
        let hits = fold
            .decisions
            .iter()
            .filter(|d| d.has_bug && d.flagged)
            .count();
        let total = fold.decisions.iter().filter(|d| d.has_bug).count();
        println!("  held-out {:22} detected {hits}/{total}", fold.type_name);
    }
}
