//! Property and integration tests for collection persistence: round-trip
//! identity, corrupt/truncated-file rejection, version and fingerprint
//! validation, and the on-disk front doors (`collect_or_load`,
//! `collect_shard_or_resume`, `load_or_assemble`) on a real collected
//! corpus of each experiment.

use std::path::Path;

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{
    collect, CapturedSeries, Collection, CollectionConfig, EngineResult, ExperimentConfig,
    ProbeMeta, ProbeScale, RunKey,
};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{
    cache_file_name, collect_or_load, collect_shard_or_resume, decode_collection,
    encode_collection, load_collection, load_or_assemble, parse_cache_file_name, read_header,
    save_collection_with, scan_part, shard_file_name, CacheStatus, ExperimentKind, FileHeader,
    PersistError, ShardManifest, CORPUS_REVISION, FORMAT_VERSION,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::ShardSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::{ArchSet, BugSpec};
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};
use proptest::prelude::*;

/// Builds a structurally valid collection from fuzzed dimensions and
/// payload floats. `floats` seeds every numeric field (cycled), so the
/// round trip exercises arbitrary bit patterns including subnormals.
fn synth_collection(
    n_probes: usize,
    n_engines: usize,
    n_captures: usize,
    floats: &[f64],
    with_bug_keys: bool,
) -> Collection {
    let mut next = {
        let mut i = 0;
        move || {
            let v = floats[i % floats.len()];
            i += 1;
            v
        }
    };
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::FpMul },
        BugSpec::WritesToRegDelay {
            n: 32,
            t: 6,
            periodic: true,
        },
        BugSpec::OpcodeUsesRegDelay {
            x: Opcode::Load,
            r: 3,
            t: 8,
        },
        // Post-paper extension types (ids 15/16): fuzzed corpora put
        // these in cache files, so every persistence property must hold
        // for them too.
        BugSpec::TlbPageWalkDelay { entries: 64, t: 40 },
        BugSpec::IssueReplayEveryN { n: 8, t: 12 },
    ]);
    let mut keys = vec![RunKey {
        arch: "Skylake".into(),
        set: ArchSet::IV,
        bug: None,
    }];
    if with_bug_keys {
        for b in 0..catalog.len() {
            keys.push(RunKey {
                arch: "Skylake".into(),
                set: ArchSet::II,
                bug: Some(b),
            });
        }
    }
    let probes: Vec<ProbeMeta> = (0..n_probes)
        .map(|p| ProbeMeta {
            id: format!("bench#{p}"),
            benchmark: "bench".into(),
            weight: next(),
        })
        .collect();
    let engines: Vec<EngineResult> = (0..n_engines)
        .map(|e| EngineResult {
            name: format!("GBT-{e}"),
            deltas: (0..n_probes)
                .map(|_| keys.iter().map(|_| next()).collect())
                .collect(),
        })
        .collect();
    Collection {
        overall_ipc: (0..n_probes)
            .map(|_| keys.iter().map(|_| next()).collect())
            .collect(),
        agg_features: (0..n_probes)
            .map(|_| keys.iter().map(|_| vec![next(), next(), next()]).collect())
            .collect(),
        captures: (0..n_captures)
            .map(|c| CapturedSeries {
                // Non-decreasing valid probe ids: the codec stores
                // captures inside their probe's chunk, so a capture must
                // name a real probe and the flat list is probe-ordered.
                probe_id: format!("bench#{}", c * n_probes / n_captures.max(1)),
                arch: "IvyBridge".into(),
                bug: (c % 2 == 0).then_some(c % 3),
                engine: "GBT-0".into(),
                simulated: vec![next(), next()],
                inferred: vec![next(), next()],
            })
            .collect(),
        keys,
        probes,
        engines,
        catalog,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_is_identity(
        n_probes in 1usize..5,
        n_engines in 1usize..4,
        n_captures in 0usize..3,
        floats in prop::collection::vec(-1e9..1e9f64, 8..24),
        with_bug_keys in any::<bool>(),
        fingerprint in any::<u64>(),
    ) {
        let col = synth_collection(n_probes, n_engines, n_captures, &floats, with_bug_keys);
        let bytes = encode_collection(&col, fingerprint);
        let back = decode_collection(&bytes, fingerprint)
            .expect("round trip must decode");
        prop_assert!(back == col, "decoded collection differs");
    }

    #[test]
    fn corrupt_bytes_are_rejected(
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
        fingerprint in any::<u64>(),
    ) {
        let col = synth_collection(2, 1, 1, &[0.5, -3.25, 1e-300], true);
        let mut bytes = encode_collection(&col, fingerprint);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            decode_collection(&bytes, fingerprint).is_err(),
            "flipping byte {pos} with {flip:#x} went undetected"
        );
    }

    #[test]
    fn truncated_bytes_are_rejected(cut_seed in any::<u64>(), fingerprint in any::<u64>()) {
        let col = synth_collection(2, 2, 0, &[42.0, 0.125], false);
        let bytes = encode_collection(&col, fingerprint);
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(decode_collection(&bytes[..cut], fingerprint).is_err());
    }

    #[test]
    fn wrong_fingerprint_is_rejected(fp in any::<u64>(), other in any::<u64>()) {
        prop_assume!(fp != other);
        let col = synth_collection(1, 1, 0, &[1.5], false);
        let bytes = encode_collection(&col, fp);
        match decode_collection(&bytes, other) {
            Err(PersistError::Fingerprint { found, expected }) => {
                prop_assert_eq!(found, fp);
                prop_assert_eq!(expected, other);
            }
            r => prop_assert!(false, "expected fingerprint rejection, got {:?}", r.is_ok()),
        }
    }

    #[test]
    fn wrong_version_is_rejected(version in any::<u32>()) {
        // Every other version — older ones included — is a version
        // error, never reinterpreted.
        prop_assume!(version != FORMAT_VERSION);
        let col = synth_collection(1, 1, 0, &[2.5], false);
        let mut bytes = encode_collection(&col, 1);
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        // Reject even with a re-sealed checksum: the version gate is
        // independent of integrity.
        let body = bytes.len() - 8;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &bytes[..body] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[body..].copy_from_slice(&hash.to_le_bytes());
        let is_version = |e: PersistError| {
            matches!(e, PersistError::Version { found, expected }
                if found == version && expected == FORMAT_VERSION)
        };
        match decode_collection(&bytes, 1) {
            Err(e) => prop_assert!(is_version(e)),
            Ok(_) => prop_assert!(false, "version {} decoded", version),
        }
        // The header triage and the part-file scanner gate on it too.
        prop_assert!(read_header(&bytes).is_err_and(is_version));
        prop_assert!(scan_part(&bytes).is_err_and(is_version));
    }

    #[test]
    fn file_names_round_trip_through_parse(
        fingerprint in any::<u64>(),
        index in 0u32..512,
        extra in 1u32..512,
        mem in any::<bool>(),
    ) {
        let count = index + extra;
        let kind = if mem { ExperimentKind::Memory } else { ExperimentKind::Core };
        // Prefixes with dashes (even a trailing `-s`) must survive.
        for prefix in ["fig08", "speed-test", "tbl-s"] {
            let full = cache_file_name(prefix, kind, fingerprint);
            let parsed = parse_cache_file_name(&full).expect("full name parses");
            prop_assert_eq!(&parsed.prefix, prefix);
            prop_assert_eq!(parsed.kind, kind);
            prop_assert_eq!(parsed.fingerprint, fingerprint);
            prop_assert_eq!(parsed.shard, None);

            let shard = shard_file_name(prefix, kind, fingerprint, index as usize, count as usize);
            let parsed = parse_cache_file_name(&shard).expect("shard name parses");
            prop_assert_eq!(&parsed.prefix, prefix);
            prop_assert_eq!(parsed.fingerprint, fingerprint);
            prop_assert_eq!(parsed.shard, Some((index, count)));
        }
    }
}

/// A minimal structurally-valid collection around `catalog`: one probe,
/// one engine, one bugged key per variant. No simulation involved — the
/// point is pushing the *catalogue* through the codec.
fn collection_with_catalog(catalog: BugCatalog) -> Collection {
    let mut keys = vec![RunKey {
        arch: "Skylake".into(),
        set: ArchSet::IV,
        bug: None,
    }];
    for b in 0..catalog.len() {
        keys.push(RunKey {
            arch: "Skylake".into(),
            set: ArchSet::II,
            bug: Some(b),
        });
    }
    Collection {
        probes: vec![ProbeMeta {
            id: "bench#0".into(),
            benchmark: "bench".into(),
            weight: 1.0,
        }],
        engines: vec![EngineResult {
            name: "GBT-0".into(),
            deltas: vec![keys.iter().enumerate().map(|(i, _)| i as f64).collect()],
        }],
        overall_ipc: vec![keys.iter().map(|_| 1.5).collect()],
        agg_features: vec![keys.iter().map(|_| vec![0.25, -0.5]).collect()],
        captures: Vec::new(),
        keys,
        catalog,
    }
}

/// Every extended-catalogue variant — the post-paper core types and the
/// memory types via their same-id core placeholder — survives the PBCL
/// codec and the streaming verifier (`pbcol verify --stream`'s engine).
#[test]
fn extended_catalogs_round_trip_and_verify() {
    use perfbug_core::bugs::MemBugCatalog;
    use perfbug_core::memory::mem_catalog_as_core;
    use perfbug_core::persist::{save_collection, verify_stream};

    let dir = std::env::temp_dir().join(format!("perfbug-extcat-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let catalogs = [
        BugCatalog::core_extended(),
        mem_catalog_as_core(&MemBugCatalog::extended()),
    ];
    for (i, catalog) in catalogs.into_iter().enumerate() {
        let col = collection_with_catalog(catalog);
        let fp = 0xE0 + i as u64;

        let bytes = encode_collection(&col, fp);
        let back = decode_collection(&bytes, fp).expect("extended catalogue must decode");
        assert_eq!(back, col, "catalogue {i} diverged through the codec");

        let path = dir.join(format!("extcat-{i}.pbcol"));
        save_collection(&path, &col, fp).expect("save");
        let mut chunks = 0;
        let header = verify_stream(&path, Some(fp), |_| chunks += 1)
            .expect("extended catalogue must stream-verify");
        assert_eq!(header.fingerprint, fp);
        assert!(chunks > 0, "verifier must visit the probe chunks");
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(&dir);
}

// --------------------------------------------------------------------------
// Integration: a real collected corpus through the file front door
// --------------------------------------------------------------------------

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
    config.benchmarks = vec![benchmark("462.libquantum").expect("suite")];
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

fn tiny_mem_config() -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 25,
            ..GbtParams::default()
        })],
        TargetMetric::Amat,
    );
    config.workload = WorkloadScale::tiny();
    config.step_cycles = 300;
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

/// Drives one experiment through the on-disk front doors: save/load
/// identity, stale-fingerprint rejection, a cold `collect_or_load` that
/// collects, a warm one that replays without simulating, and a 2-shard
/// pass through `collect_shard_or_resume` + `load_or_assemble` that
/// assembles the single-process file.
fn front_door_round_trip<C: ExperimentConfig>(config: &C, stale: &C, dir: &Path) {
    let fp = config.fingerprint();
    let file = |prefix: &str| dir.join(cache_file_name(prefix, C::KIND, fp));

    // save -> load is the identity on a real collected corpus.
    let col = collect(config);
    let path = file("round-trip");
    let header = FileHeader {
        kind: C::KIND,
        corpus_revision: CORPUS_REVISION,
        fingerprint: fp,
        manifest: ShardManifest::full(col.probes.len()),
    };
    save_collection_with(&path, &col, &header).expect("save");
    let loaded = load_collection(&path, fp).expect("load");
    assert_eq!(loaded, col, "collection must replay byte-identically");

    // A changed configuration fingerprint must reject the cache.
    let stale_fp = stale.fingerprint();
    assert_ne!(stale_fp, fp);
    assert!(matches!(
        load_collection(&path, stale_fp),
        Err(PersistError::Fingerprint { .. })
    ));

    // The collect_or_load front door: cold pass collects and saves, warm
    // pass replays without touching the simulator.
    let front = file("front-door");
    let (cold, status) = collect_or_load(&front, config).expect("cold pass");
    assert_eq!(status, CacheStatus::Collected);
    assert!(front.exists());

    let sims_before = perfbug_core::exec::simulations_run();
    let (warm, status) = collect_or_load(&front, config).expect("warm pass");
    assert_eq!(status, CacheStatus::Replayed);
    assert_eq!(
        perfbug_core::exec::simulations_run(),
        sims_before,
        "replay must not simulate"
    );
    assert_eq!(warm, cold);

    // Two shard workers, then assembly: the merged file is the
    // single-process file, byte for byte.
    for index in 0..2 {
        let shard = ShardSpec::new(index, 2);
        let shard_path = dir.join(shard_file_name("sharded", C::KIND, fp, index, 2));
        let outcome = collect_shard_or_resume(&shard_path, config, shard).expect("shard pass");
        assert_eq!(outcome.status, CacheStatus::Collected);
    }
    let assembled = file("sharded");
    let (merged, status) = load_or_assemble(&assembled, C::KIND, fp)
        .expect("assemble")
        .expect("complete shard set");
    assert_eq!(status, CacheStatus::Assembled);
    assert_eq!(merged.probes, cold.probes);
    assert_eq!(
        std::fs::read(&assembled).expect("read assembled corpus"),
        std::fs::read(&front).expect("read single-process corpus"),
        "assembled corpus must equal the single-process one"
    );
}

// One test (not two) on purpose: the replay assertion samples the
// process-global `exec::simulations_run()` counter, and a sibling test
// collecting concurrently in the same binary would move it inside the
// assertion window. The same generic body runs both experiments.
#[test]
fn real_collection_round_trips_and_replays_without_simulating() {
    let dir = std::env::temp_dir().join(format!("perfbug-persist-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let core = tiny_config();
    let mut stale = core.clone();
    stale.arch_features = !core.arch_features;
    front_door_round_trip(&core, &stale, &dir);

    let memory = tiny_mem_config();
    let mut stale = memory.clone();
    stale.metric = TargetMetric::Ipc;
    front_door_round_trip(&memory, &stale, &dir);

    let _ = std::fs::remove_dir_all(&dir);
}
