//! The trace-cache equivalence harness: a warm collection pass replays
//! every trace from the `.pbtr` store — zero regenerations — and yields
//! a corpus byte-identical to the cold pass, on both simulator sides.
//!
//! One test (not several) on purpose: the assertions sample the
//! process-global `exec::traces_regenerated()` counter, and a sibling
//! test collecting (or exercising a regeneration fallback) concurrently
//! in the same binary would move it inside the assertion window. The
//! non-counter trace-cache properties live in `trace_props.rs`.

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec;
use perfbug_core::experiment::{collect, CollectionConfig, ProbeScale};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{config_fingerprint, mem_config_fingerprint, save_collection};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::tracecache::TRACE_DIR_ENV;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};

fn gbt10() -> EngineSpec {
    EngineSpec::Gbt(GbtParams {
        n_trees: 10,
        ..GbtParams::default()
    })
}

fn tiny_core_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(vec![gbt10()], catalog);
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![benchmark("462.libquantum").expect("suite")];
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

fn tiny_mem_config() -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(vec![gbt10()], TargetMetric::Amat);
    config.workload = WorkloadScale::tiny();
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

#[test]
fn warm_passes_regenerate_nothing_and_replay_byte_identical_corpora() {
    let dir = std::env::temp_dir().join(format!("trace-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::env::set_var(TRACE_DIR_ENV, dir.join("traces"));

    // Memory side: cold builds the store, warm replays it.
    let mem_config = tiny_mem_config();
    let before = exec::traces_regenerated();
    let cold = collect(&mem_config);
    assert!(
        exec::traces_regenerated() > before,
        "the cold pass must generate traces"
    );
    let before = exec::traces_regenerated();
    let warm = collect(&mem_config);
    assert_eq!(
        exec::traces_regenerated() - before,
        0,
        "a warm memory pass must regenerate no traces"
    );
    assert_eq!(warm, cold, "warm memory corpus diverged from cold");

    // Byte identity through the persistence codec, not just `Eq`.
    let fp = mem_config_fingerprint(&mem_config);
    let (a, b) = (dir.join("cold.pbcol"), dir.join("warm.pbcol"));
    save_collection(&a, &cold, fp).expect("save cold");
    save_collection(&b, &warm, fp).expect("save warm");
    assert_eq!(
        std::fs::read(&a).expect("read cold"),
        std::fs::read(&b).expect("read warm"),
        "warm memory corpus is not byte-identical"
    );

    // Core (uarch) side: same contract through `experiment::collect`.
    let core_config = tiny_core_config();
    let before = exec::traces_regenerated();
    let cold = collect(&core_config);
    assert!(
        exec::traces_regenerated() > before,
        "the cold core pass must generate traces"
    );
    let before = exec::traces_regenerated();
    let warm = collect(&core_config);
    assert_eq!(
        exec::traces_regenerated() - before,
        0,
        "a warm core pass must regenerate no traces"
    );
    assert_eq!(warm, cold, "warm core corpus diverged from cold");
    let fp = config_fingerprint(&core_config);
    let (a, b) = (dir.join("cold-core.pbcol"), dir.join("warm-core.pbcol"));
    save_collection(&a, &cold, fp).expect("save cold");
    save_collection(&b, &warm, fp).expect("save warm");
    assert_eq!(
        std::fs::read(&a).expect("read cold"),
        std::fs::read(&b).expect("read warm"),
        "warm core corpus is not byte-identical"
    );

    std::env::remove_var(TRACE_DIR_ENV);
    let _ = std::fs::remove_dir_all(&dir);
}
