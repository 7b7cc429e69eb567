//! Persistent workload-trace cache: cold build, warm replay.
//!
//! Runs the memory-experiment collection twice with `PERFBUG_TRACE_DIR`
//! set: the cold pass generates every probe trace and builds the `.pbtr`
//! store, the warm pass replays the cached traces. This example is also
//! the CI trace-cache guard: it exits non-zero if the warm pass
//! regenerated any trace, if the warm corpus is not byte-identical to
//! the cold one, or if the store's files fail full verification. With an explicit directory argument the trace
//! files are kept, so CI can run `pbcol verify` over them afterwards.
//!
//! ```sh
//! cargo run --release --example trace_cache [trace-dir]
//! ```

use std::time::Instant;

use perfbug_core::exec;
use perfbug_core::experiment::collect;
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{mem_config_fingerprint, save_collection};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::tracecache::{trace_cache_rejections, verify_trace_file, TRACE_DIR_ENV};
use perfbug_ml::GbtParams;
use perfbug_workloads::WorkloadScale;

/// The guard's corpus: the memory experiment at tiny scale, small GBT.
fn demo_config() -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 25,
            ..GbtParams::default()
        })],
        TargetMetric::Amat,
    );
    config.workload = WorkloadScale::tiny();
    config.max_probes = Some(6);
    config
}

fn main() {
    let explicit_dir = std::env::args().nth(1).map(std::path::PathBuf::from);
    let keep_files = explicit_dir.is_some();
    let dir = explicit_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("perfbug-trace-cache-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("trace dir");
    std::env::set_var(TRACE_DIR_ENV, &dir);

    let config = demo_config();

    // Cold pass: every trace is generated once and persisted.
    println!(
        "cold pass: collecting with trace store {} ...",
        dir.display()
    );
    let regens_before = exec::traces_regenerated();
    let t0 = Instant::now();
    let cold = collect(&config);
    let cold_time = t0.elapsed();
    let cold_regens = exec::traces_regenerated() - regens_before;
    println!(
        "  collected {} probes x {} runs in {cold_time:.2?} ({cold_regens} traces generated)",
        cold.probes.len(),
        cold.keys.len()
    );
    if cold_regens == 0 {
        eprintln!("TRACE GUARD FAILED: the cold pass generated no traces");
        std::process::exit(1);
    }

    // Warm pass: every trace replays from the store. The regeneration
    // counter must not move.
    let regens_before = exec::traces_regenerated();
    let t1 = Instant::now();
    let warm = collect(&config);
    let warm_time = t1.elapsed();
    let regenerated = exec::traces_regenerated() - regens_before;
    println!("  warm pass in {warm_time:.2?} (cold pass took {cold_time:.2?})");
    if regenerated != 0 {
        eprintln!("TRACE GUARD FAILED: the warm pass regenerated {regenerated} traces");
        std::process::exit(1);
    }

    // The warm corpus must be byte-identical to the cold one — through
    // the persistence codec, not just `Eq`.
    if warm != cold {
        eprintln!("TRACE GUARD FAILED: warm corpus differs from the cold one");
        std::process::exit(1);
    }
    let fp = mem_config_fingerprint(&config);
    let (a, b) = (dir.join("cold.pbcol"), dir.join("warm.pbcol"));
    save_collection(&a, &cold, fp).expect("save cold");
    save_collection(&b, &warm, fp).expect("save warm");
    let identical = std::fs::read(&a).expect("read cold") == std::fs::read(&b).expect("read warm");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    if !identical {
        eprintln!("TRACE GUARD FAILED: warm corpus is not byte-identical to the cold one");
        std::process::exit(1);
    }
    println!("  warm pass regenerated 0 traces, corpus byte-identical");

    // Every file the store produced fully verifies (every probe chunk
    // decoded), and none was rejected along the way.
    let rejections = trace_cache_rejections();
    if rejections != 0 {
        eprintln!("TRACE GUARD FAILED: {rejections} trace-cache rejections on a healthy store");
        std::process::exit(1);
    }
    let mut n_files = 0usize;
    let mut n_insts = 0u64;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("read trace dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pbtr"))
        .collect();
    entries.sort();
    for path in &entries {
        match verify_trace_file(path) {
            Ok((header, insts)) => {
                n_files += 1;
                n_insts += insts;
                println!(
                    "  verified {}: {} probe(s), {insts} instruction(s)",
                    path.display(),
                    header.n_probes
                );
            }
            Err(e) => {
                eprintln!(
                    "TRACE GUARD FAILED: {} does not verify: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
    if n_files == 0 {
        eprintln!("TRACE GUARD FAILED: the store holds no trace files");
        std::process::exit(1);
    }
    println!(
        "  store: {n_files} file(s), {n_insts} cached instruction(s), speedup {:.2}x",
        cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9)
    );

    if keep_files {
        println!("keeping trace files in {} for inspection", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("trace-cache guard passed");
}
