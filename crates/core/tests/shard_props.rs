//! Shard determinism: any shard partition of the (probe × unit) grid,
//! merged in any order, reassembles the single-process collection
//! bit-identically, and overlapping or missing shard sets are rejected
//! with precise errors.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{
    collect, collect_sharded, CaptureSpec, Collection, CollectionConfig, ProbeScale,
};
use perfbug_core::persist::{
    collect_shard_or_resume, config_fingerprint, encode_collection, merge_collections, CacheStatus,
    ExperimentKind, FileHeader, PersistError, ShardManifest, CORPUS_REVISION,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};
use proptest::prelude::*;

/// Shard counts the property test draws from: an even split, an uneven
/// split, and more shards than probes (so some shards are empty).
const SHARD_COUNTS: [usize; 3] = [2, 3, 7];

fn tiny_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 25,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite"),
        benchmark("462.libquantum").expect("suite"),
    ];
    config.max_probes = Some(5);
    config.threads = 2;
    // A captured series on a middle probe, so the merge path is exercised
    // on captures too (they concatenate in probe order).
    config.captures = vec![CaptureSpec {
        probe_id: "458.sjeng#1".into(),
        arch: "Skylake".into(),
        bug: Some(1),
    }];
    config
}

/// The single-process reference collection, collected once.
fn full_collection() -> &'static Collection {
    static FULL: OnceLock<Collection> = OnceLock::new();
    FULL.get_or_init(|| collect(&tiny_config()))
}

/// One decoded shard: its collection and the header it was written under.
type ShardPart = (Collection, FileHeader);

/// Shard parts per shard count, collected once per count and shared
/// across property cases (each count costs one full collection pass).
fn shard_parts(count: usize) -> Vec<ShardPart> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Vec<ShardPart>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("shard cache lock");
    cache
        .entry(count)
        .or_insert_with(|| {
            let config = tiny_config();
            let fingerprint = config_fingerprint(&config);
            (0..count)
                .map(|index| {
                    let shard = ShardSpec::new(index, count);
                    let (col, total) = collect_sharded(&config, shard);
                    let header = FileHeader {
                        kind: ExperimentKind::Core,
                        corpus_revision: CORPUS_REVISION,
                        fingerprint,
                        manifest: ShardManifest::of(shard, total),
                    };
                    (col, header)
                })
                .collect()
        })
        .clone()
}

/// Deterministic Fisher–Yates driven by a seed, so "merged in any order"
/// is exercised without `rand` in the test.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_partition_merged_in_any_order_is_bit_identical(
        count_idx in 0usize..SHARD_COUNTS.len(),
        order_seed in any::<u64>(),
    ) {
        let count = SHARD_COUNTS[count_idx];
        let mut parts = shard_parts(count);
        shuffle(&mut parts, order_seed);

        let (merged, header) = merge_collections(parts).expect("complete partition merges");
        prop_assert!(header.manifest.is_full());

        // Bit-identical: the canonical encodings must match byte for byte.
        let fingerprint = config_fingerprint(&tiny_config());
        prop_assert!(
            encode_collection(&merged, fingerprint)
                == encode_collection(full_collection(), fingerprint),
            "merge of {count} shards (order seed {order_seed}) diverged from the full pass"
        );
    }

    #[test]
    fn missing_shards_are_rejected_with_the_missing_range(
        count_idx in 0usize..SHARD_COUNTS.len(),
        drop_seed in any::<u64>(),
    ) {
        let count = SHARD_COUNTS[count_idx];
        let mut parts = shard_parts(count);
        let dropped = (drop_seed as usize) % parts.len();
        parts.remove(dropped);
        match merge_collections(parts) {
            Err(PersistError::Shard(msg)) => prop_assert!(
                msg.contains(&format!("expected {count} shards")),
                "error must name the expected shard count: {msg}"
            ),
            other => prop_assert!(false, "expected shard error, merged: {:?}", other.is_ok()),
        }
    }
}

#[test]
fn overlapping_shards_are_rejected_with_the_overlap() {
    // Shard 0's part presented as covering shard 1's range too: the same
    // probes appear twice under a consistent-looking count.
    let parts = shard_parts(2);
    let dup = vec![parts[0].clone(), parts[0].clone()];
    match merge_collections(dup) {
        // Same index twice with identical ranges: caught as overlap.
        Err(PersistError::Shard(msg)) => {
            assert!(msg.contains("overlap"), "imprecise error: {msg}")
        }
        other => panic!("expected overlap rejection, got ok={}", other.is_ok()),
    }
}

#[test]
fn partition_mismatch_is_rejected() {
    // A shard from a 2-way split cannot complete a 3-way split.
    let two = shard_parts(2);
    let three = shard_parts(3);
    let mixed = vec![two[0].clone(), three[1].clone(), three[2].clone()];
    match merge_collections(mixed) {
        Err(PersistError::Shard(msg)) => {
            assert!(msg.contains("partition mismatch"), "imprecise error: {msg}")
        }
        other => panic!("expected partition mismatch, got ok={}", other.is_ok()),
    }
}

#[test]
fn empty_shards_round_trip_through_files() {
    // 7 shards over 5 probes: shards 5 and 6 own zero probes; their files
    // must still save, replay and participate in assembly.
    let config = tiny_config();
    let dir = std::env::temp_dir().join(format!("perfbug-shard-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shard = ShardSpec::new(6, 7);
    let path = dir.join("empty-shard.pbcol");
    let _ = std::fs::remove_file(&path);
    let saved = collect_shard_or_resume(&path, &config, shard).expect("save empty shard");
    assert_eq!(saved.status, CacheStatus::Collected);
    assert!(saved.collection.probes.is_empty());
    let back = collect_shard_or_resume(&path, &config, shard).expect("replay empty shard");
    assert_eq!(back.status, CacheStatus::Replayed);
    assert_eq!(back.collection, saved.collection);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
