//! Table V — bug-detection results: the single-stage baseline vs the
//! two-stage methodology across stage-1 engines, plus the rows where a bug
//! lurks in the presumed-bug-free training designs.
//!
//! Paper shape: GBT-250 is the best stage-1 engine (highest TPR at zero
//! FPR, precision 1.0, top ROC AUC), beating the single-stage baseline;
//! TPR rises with severity; training on silently-buggy designs degrades
//! detection and introduces false positives.

use perfbug_bench::{banner, cnn, gbt150, gbt250, lasso, lstm, mlp, severity_cells};
use perfbug_core::baseline::BaselineParams;
use perfbug_core::experiment::{evaluate_baseline, evaluate_two_stage};
use perfbug_core::report::Table;
use perfbug_core::stage2::Stage2Params;
use perfbug_core::DetectionMetrics;
use perfbug_uarch::BugSpec;
use perfbug_workloads::Opcode;

fn row(table: &mut Table, training: &str, name: &str, m: &DetectionMetrics) {
    let sev = severity_cells(m);
    table.row(vec![
        training.to_string(),
        name.to_string(),
        format!("{:.2}", m.fpr),
        format!("{:.2}", m.tpr),
        format!("{:.2}", m.roc_auc),
        m.precision.map_or("n/a".into(), |p| format!("{p:.2}")),
        sev[3].clone(),
        sev[2].clone(),
        sev[1].clone(),
        sev[0].clone(),
    ]);
}

fn main() {
    banner(
        "Table V",
        "Bug detection results (leave-one-bug-type-out, Set IV)",
    );
    let engines = vec![
        lasso(),
        lstm(1, 500, 24),
        cnn(1, 150, 32),
        mlp(1, 500, 64),
        gbt150(),
        gbt250(),
    ];
    let config = perfbug_bench::base_config(engines, 20);
    println!(
        "collecting {} probes x {} bug variants (this is the expensive pass)...",
        config
            .max_probes
            .map_or("all".to_string(), |n| n.to_string()),
        config.catalog.len()
    );
    let col = perfbug_bench::collect_cached("table05", &config);

    let mut table = Table::new(vec![
        "Training",
        "Stage-1 model",
        "FPR",
        "TPR",
        "ROC AUC",
        "Precision",
        "High",
        "Medium",
        "Low",
        "Very Low",
    ]);

    // Single-stage baseline (§II).
    let baseline_eval = evaluate_baseline(&col, &BaselineParams::default());
    row(
        &mut table,
        "NoBug",
        "Single-stage baseline",
        &baseline_eval.metrics,
    );

    // The two-stage methodology per engine.
    for (e, engine) in col.engines.iter().enumerate() {
        let eval = evaluate_two_stage(&col, e, Stage2Params::default());
        row(&mut table, "NoBug", &engine.name, &eval.metrics);
    }

    // Rows with a bug hidden in the presumed-bug-free training designs
    // (the paper's Bug 1 / Bug 2 rows, GBT-250 only).
    let presumed = [
        ("Bug1", BugSpec::IfOldestIssueOnlyX { x: Opcode::Xor }),
        (
            "Bug2",
            BugSpec::OpcodeUsesRegDelay {
                x: Opcode::Add,
                r: 0,
                t: 10,
            },
        ),
    ];
    for (label, bug) in presumed {
        let mut config = perfbug_bench::base_config(vec![gbt250()], 10);
        config.presumed_bugfree_bug = Some(bug);
        println!("re-collecting with {label} hidden in the training designs...");
        let col = perfbug_bench::collect_cached("table05", &config);
        let eval = evaluate_two_stage(&col, 0, Stage2Params::default());
        row(&mut table, label, "GBT-250", &eval.metrics);
    }

    println!("{}", table.render());
    println!("expected shape: GBT-250 best (zero FPR, precision 1.0, top AUC);");
    println!("TPR monotone in severity; buggy-training rows degraded with FPR > 0.");
}
