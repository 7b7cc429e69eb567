//! Table IV — IPC modelling runtime and error statistics per ML engine.
//!
//! Paper shape: Lasso fastest to train but worst errors; LSTMs slowest
//! with occasional non-convergent outliers (huge mean, sane median);
//! MLPs and GBTs accurate, with GBT cheap to train; GBT-250 best overall.
//!
//! The Training and Inference columns are the wall-clock stage-1 time
//! this process spent per engine during the collection
//! (`exec::stage1_times`). Corpora carry no timings, so when the corpus
//! is replayed from `PERFBUG_CACHE_DIR` (or collected by orchestrated
//! worker processes) no engine was trained here and both columns read
//! "replayed".

use std::collections::BTreeMap;

use perfbug_bench::{banner, bench_scale, cnn, gbt150, gbt250, lasso, lstm, mlp, BenchScale};
use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec::{stage1_times, Stage1Time};
use perfbug_core::experiment::bugfree_test_errors;
use perfbug_core::report::{stats, Table};
use perfbug_uarch::BugSpec;

fn main() {
    banner(
        "Table IV",
        "IPC modelling runtime and inference-error statistics",
    );
    let engines = vec![
        lasso(),
        lstm(1, 150, 16),
        lstm(1, 250, 24),
        lstm(1, 500, 32),
        lstm(4, 150, 16),
        cnn(1, 150, 32),
        cnn(4, 150, 32),
        mlp(1, 500, 64),
        mlp(1, 2500, 160),
        mlp(4, 500, 48),
        gbt150(),
        gbt250(),
    ];
    // The error statistics are measured on bug-free Set-IV runs; a minimal
    // one-bug catalogue keeps the collection shape valid and cheap.
    let mut config = perfbug_bench::base_config(
        engines,
        match bench_scale() {
            BenchScale::Quick => 14,
            BenchScale::Paper => 190,
        },
    );
    config.catalog = BugCatalog::new(vec![BugSpec::MispredictExtraDelay { t: 10 }]);

    println!(
        "training {} engines on {} probes (shared simulations)...",
        config.engines.len(),
        config
            .max_probes
            .map_or("all".to_string(), |n| n.to_string())
    );
    let before = stage1_times();
    let col = perfbug_bench::collect_cached("table04", &config);
    let after = stage1_times();

    let mut table = Table::new(vec![
        "ML Model",
        "Training",
        "Inference",
        "Average",
        "Std. Dev.",
        "Median",
        "90th Perc.",
    ]);
    let mut replayed = false;
    for (e, engine) in col.engines.iter().enumerate() {
        let errors = bugfree_test_errors(&col, e);
        let (mean, std, median, p90) = stats(&errors);
        let spent = |times: &BTreeMap<String, Stage1Time>| {
            times.get(&engine.name).copied().unwrap_or_default()
        };
        let (t0, t1) = (spent(&before), spent(&after));
        let (train, infer) = if t1 == t0 {
            replayed = true;
            ("replayed".to_string(), "replayed".to_string())
        } else {
            (
                format!("{:.1?}", t1.train - t0.train),
                format!("{:.1?}", t1.infer - t0.infer),
            )
        };
        table.row(vec![
            engine.name.clone(),
            train,
            infer,
            format!("{mean:.4}"),
            format!("{std:.4}"),
            format!("{median:.4}"),
            format!("{p90:.4}"),
        ]);
    }
    println!("{}", table.render());
    if replayed {
        println!(
            "replayed: no engine was trained in this process (the corpus came from the \
             cache or from orchestrated worker processes)."
        );
    }
    println!("expected shape: Lasso fastest/worst; LSTM slowest (outlier-prone);");
    println!("MLP and GBT accurate with GBT far cheaper to train.");
}
