//! Property and integration tests for the persistent workload-trace
//! cache (`perfbug_core::tracecache`): Inst wire-codec round trips,
//! exhaustive single-byte-flip and truncation rejection of a `.pbtr`
//! file, stale/corrupt-store fallback to regeneration, shard-partition
//! equivalence of warm collections, and the pinned trace-invariance of
//! every bug family.
//!
//! The regeneration-counter equivalence assertions live alone in
//! `trace_equiv.rs`: the tests here regenerate traces on purpose (the
//! fallback paths), which would race a counter-delta window in the same
//! binary.

use std::collections::BTreeSet;
use std::path::PathBuf;

use perfbug_core::bugs::{BugCatalog, MemBugCatalog};
use perfbug_core::experiment::{collect, collect_sharded};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::tracecache::{
    encode_trace_file, trace_cache_rejections, trace_file_name, trace_fingerprint,
    verify_trace_file, TraceMeta, TraceProbeMeta, TraceProvider, TraceStore, TRACE_DIR_ENV,
};
use perfbug_core::ShardSpec;
use perfbug_ml::GbtParams;
use perfbug_workloads::wire::{decode_inst, encode_inst, INST_WIRE_LEN};
use perfbug_workloads::{benchmark, Inst, WorkloadScale, ALL_OPCODES, NO_REG};
use proptest::prelude::*;

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trace-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        0..ALL_OPCODES.len(),
        0u8..=255,
        (0u8..=255, 0u8..=255, 0u8..=255),
        any::<bool>(),
    )
        .prop_map(
            |(pc, mem_addr, target, op, size, (src1, src2, dst), taken)| Inst {
                pc,
                mem_addr,
                target,
                opcode: ALL_OPCODES[op],
                size,
                src1,
                src2,
                dst,
                taken,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inst_codec_round_trips(insts in prop::collection::vec(arb_inst(), 0..64)) {
        let mut buf = Vec::new();
        for inst in &insts {
            encode_inst(inst, &mut buf);
        }
        prop_assert_eq!(buf.len(), insts.len() * INST_WIRE_LEN);
        for (k, inst) in insts.iter().enumerate() {
            let rec = &buf[k * INST_WIRE_LEN..(k + 1) * INST_WIRE_LEN];
            let back = decode_inst(rec).expect("fixed-width record must decode");
            prop_assert_eq!(&back, inst, "record {} diverged through the codec", k);
        }
    }
}

/// A small synthetic but structurally valid trace file: two probes of
/// five instructions each, under the given content fingerprint.
fn synth_trace_bytes(fingerprint: u64) -> Vec<u8> {
    let insts: Vec<Inst> = (0..5u32)
        .map(|i| Inst {
            pc: 0x1000 + i * 4,
            mem_addr: if i % 2 == 0 { 0x8000 + i } else { 0 },
            target: if i == 4 { 0x1000 } else { 0 },
            opcode: ALL_OPCODES[i as usize % ALL_OPCODES.len()],
            size: 4,
            src1: 1,
            src2: NO_REG,
            dst: 2,
            taken: i == 4,
        })
        .collect();
    let meta = TraceMeta {
        benchmark: "bench".into(),
        interval_len: 100,
        probes: vec![
            TraceProbeMeta {
                interval: 0,
                weight_bits: 0.75f64.to_bits(),
            },
            TraceProbeMeta {
                interval: 3,
                weight_bits: 0.25f64.to_bits(),
            },
        ],
    };
    encode_trace_file(fingerprint, &meta, &[insts.clone(), insts]).expect("encode")
}

/// Every truncation and every single-byte flip of a `.pbtr` file is
/// detected — nothing between the magic and the trailing checksum is
/// trusted without validation.
#[test]
fn every_flip_and_truncation_of_a_trace_file_is_rejected() {
    let dir = scratch("flips");
    let bytes = synth_trace_bytes(0xfeed);
    let path = dir.join(trace_file_name("bench", 0xfeed));

    std::fs::write(&path, &bytes).expect("write");
    let (header, insts) = verify_trace_file(&path).expect("pristine file verifies");
    assert_eq!(header.n_probes, 2);
    assert_eq!(insts, 10);

    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        assert!(
            verify_trace_file(&path).is_err(),
            "truncation to {cut} of {} bytes went undetected",
            bytes.len()
        );
    }
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        std::fs::write(&path, &bad).expect("write corrupt");
        assert!(
            verify_trace_file(&path).is_err(),
            "flipping byte {pos} of {} went undetected",
            bytes.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged or stale store falls back to regeneration and can never
/// serve a wrong trace: stale fingerprints are rebuilt, corrupt files
/// are rebuilt, and a fingerprint collision with foreign per-probe meta
/// is refused by the identity cross-check.
#[test]
fn stale_and_corrupt_stores_fall_back_and_never_serve_a_wrong_trace() {
    let dir = scratch("fallback");
    let bench = benchmark("458.sjeng").expect("suite benchmark");
    let scale = WorkloadScale::tiny();
    let program = bench.program(&scale);
    let probes = bench.probes(&scale);
    let truth: Vec<Vec<Inst>> = probes.iter().map(|p| p.trace(&program)).collect();
    let store = TraceStore::new(dir.clone());
    let path = store.trace_path(&bench, &scale);

    // A file whose stored fingerprint is not the expected one (e.g. an
    // old trace revision) is rejected and rebuilt in place.
    std::fs::write(&path, synth_trace_bytes(0x1234)).expect("write stale");
    let rejections = trace_cache_rejections();
    let mut reader = store
        .open_or_build(&bench, &scale, &program)
        .expect("stale file must be rebuilt");
    assert!(
        trace_cache_rejections() > rejections,
        "the stale file must be counted as a rejection"
    );
    for (ordinal, t) in truth.iter().enumerate() {
        assert_eq!(&reader.read_probe(ordinal).expect("read"), t);
    }

    // A corrupt file behind a provider: rebuilt, and every served trace
    // equals the ground truth.
    let good = std::fs::read(&path).expect("read rebuilt");
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xff;
    std::fs::write(&path, &bad).expect("write corrupt");
    let provider = TraceProvider::new(
        Some(TraceStore::new(dir.clone())),
        std::slice::from_ref(&bench),
        scale,
    );
    for (probe, t) in probes.iter().zip(&truth) {
        assert_eq!(&provider.trace(probe, &program), t);
    }

    // A fingerprint collision — valid file, right fingerprint, foreign
    // per-probe meta — must not be replayed: the identity cross-check
    // falls back to regeneration.
    let fp = trace_fingerprint(&bench, &scale);
    std::fs::write(&path, synth_trace_bytes(fp)).expect("write collision");
    let provider = TraceProvider::new(
        Some(TraceStore::new(dir.clone())),
        std::slice::from_ref(&bench),
        scale,
    );
    for (probe, t) in probes.iter().zip(&truth) {
        assert_eq!(&provider.trace(probe, &program), t);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tiny memory collection the partition-equivalence test replays.
fn tiny_mem_config() -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 10,
            ..GbtParams::default()
        })],
        TargetMetric::Amat,
    );
    config.workload = WorkloadScale::tiny();
    config.max_probes = Some(4);
    config.threads = 2;
    config
}

// One env-touching test (not several) on purpose: `PERFBUG_TRACE_DIR`
// is process-global state, and a sibling test mutating it concurrently
// would race this test's cold/warm windows.
#[test]
fn warm_collections_are_bit_identical_under_any_partition() {
    let config = tiny_mem_config();
    let dir = scratch("partition");

    // Cold baseline: no trace store at all.
    std::env::remove_var(TRACE_DIR_ENV);
    let baseline = collect(&config);

    std::env::set_var(TRACE_DIR_ENV, &dir);

    // Warm, same partition.
    let warm = collect(&config);
    assert_eq!(warm, baseline, "warm full pass diverged");

    // Warm, different worker count.
    let mut serial = config.clone();
    serial.threads = 1;
    let warm_serial = collect(&serial);
    assert_eq!(warm_serial, baseline, "warm single-threaded pass diverged");

    // Warm, any shard partition: the concatenated shard collections
    // must equal the unsharded baseline row for row.
    for count in [2usize, 3] {
        let mut merged: Option<perfbug_core::Collection> = None;
        for index in 0..count {
            let (shard, total) = collect_sharded(&config, ShardSpec { index, count });
            assert_eq!(total, baseline.probes.len());
            match merged.as_mut() {
                None => merged = Some(shard),
                Some(m) => {
                    m.probes.extend(shard.probes);
                    m.overall_ipc.extend(shard.overall_ipc);
                    m.agg_features.extend(shard.agg_features);
                    m.captures.extend(shard.captures);
                    for (dst, src) in m.engines.iter_mut().zip(shard.engines) {
                        dst.deltas.extend(src.deltas);
                    }
                }
            }
        }
        let merged = merged.expect("at least one shard");
        assert_eq!(merged, baseline, "{count}-shard warm partition diverged");
    }

    std::env::remove_var(TRACE_DIR_ENV);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins exactly which bug families are trace-invariant: today, *all* of
/// them, on both simulator sides — performance bugs are timing-only and
/// never change the demand stream. A new family must take a position in
/// `perturbs_trace` (the match is exhaustive) and update this pin, so it
/// cannot silently replay a trace it invalidates.
#[test]
fn trace_invariance_is_pinned_per_family() {
    let core = BugCatalog::core_extended();
    let ids: BTreeSet<u32> = core.type_ids().into_iter().collect();
    assert_eq!(ids, (1..=16).collect(), "core family roster changed");
    for bug in core.variants() {
        assert!(
            !bug.perturbs_trace(),
            "core family {} (type {}) is no longer trace-invariant; update the \
             trace-cache gating and this pin together",
            bug.type_name(),
            bug.type_id()
        );
    }
    assert!(core.trace_invariant());

    let mem = MemBugCatalog::extended();
    let ids: BTreeSet<u32> = mem.type_ids().into_iter().collect();
    assert_eq!(ids, (1..=8).collect(), "memory family roster changed");
    for bug in mem.variants() {
        assert!(
            !bug.perturbs_trace(),
            "memory family {} (type {}) is no longer trace-invariant; update the \
             trace-cache gating and this pin together",
            bug.type_name(),
            bug.type_id()
        );
    }
    assert!(mem.trace_invariant());
}
