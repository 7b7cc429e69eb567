//! Table VII — bug detection in cache memory systems (§IV-D / §V-I).
//!
//! Paper shape: with GBT stage-1 models both IPC- and AMAT-target
//! detection reach 100 % TPR at zero FPR; the LSTM misses only Very-Low
//! AMAT-impact bugs.

use perfbug_bench::{banner, bench_scale, gbt250, lstm, severity_cells, BenchScale};
use perfbug_core::experiment::evaluate_two_stage;
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::report::Table;
use perfbug_core::stage2::Stage2Params;

fn main() {
    banner(
        "Table VII",
        "Bug detection in memory systems (IPC and AMAT targets)",
    );
    let mut table = Table::new(vec![
        "Stage-1 metric",
        "Stage-1 model",
        "FPR",
        "TPR",
        "Precision",
        "High",
        "Medium",
        "Low",
        "Very Low",
    ]);
    for metric in [TargetMetric::Ipc, TargetMetric::Amat] {
        let mut config = MemCollectionConfig::new(vec![lstm(1, 500, 24), gbt250()], metric);
        if matches!(bench_scale(), BenchScale::Quick) {
            config.max_probes = Some(12);
        }
        println!("collecting memory probes with {} target...", metric.label());
        let col = perfbug_bench::collect_memory_cached("table07", &config);
        for (e, engine) in col.engines.iter().enumerate() {
            let eval = evaluate_two_stage(&col, e, Stage2Params::default());
            let sev = severity_cells(&eval.metrics);
            table.row(vec![
                metric.label().to_string(),
                engine.name.clone(),
                format!("{:.2}", eval.metrics.fpr),
                format!("{:.2}", eval.metrics.tpr),
                eval.metrics
                    .precision
                    .map_or("n/a".into(), |p| format!("{p:.2}")),
                sev[3].clone(),
                sev[2].clone(),
                sev[1].clone(),
                sev[0].clone(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("expected shape: GBT near-perfect on both metrics; LSTM weaker on the");
    println!("lowest-impact bugs — the methodology transfers beyond the core.");
}
