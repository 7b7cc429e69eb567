//! Collection persistence and evaluation-only replay.
//!
//! Collects a small corpus once, saves it with `collect_or_load`, then
//! replays it from disk and re-runs the (cheap) evaluation phase — the
//! workflow behind the paper's Figs. 8–13 / Tables IV–VII, where one
//! simulated corpus feeds many models and thresholds. A second leg
//! collects the same corpus as two shards and assembles it from the
//! shard files, the multi-process scale-out workflow.
//!
//! This example is also the CI replay guard: it exits non-zero if the
//! replay path performed any simulation, if the replayed collection is not
//! identical to the freshly collected one, if a stale-config cache is not
//! rejected, if the shard assembly diverges from the single-process
//! collection, if chunk-index random access returns the wrong probe, or if
//! resuming a torn shard part file fails to salvage the durable chunk
//! prefix and finish bit-identical. With an explicit cache-dir argument
//! the produced files are kept, so CI can run `pbcol verify` over them
//! afterwards.
//!
//! ```sh
//! cargo run --release --example replay [cache-dir]
//! ```

use std::time::Instant;

use perfbug_bench::replay_demo_config;
use perfbug_core::exec::{self, ShardSpec};
use perfbug_core::experiment::{evaluate_two_stage, CollectionConfig};
use perfbug_core::persist::{
    cache_file_name, collect_or_load, collect_shard_or_resume, config_fingerprint, load_collection,
    load_or_assemble, part_path_for, scan_part, shard_file_name, CacheStatus, ExperimentKind,
    PersistError, ProbeReader,
};
use perfbug_core::stage2::Stage2Params;

/// The shared demo corpus (also `pborch`'s `replay-demo` spec, so the CI
/// orchestrate-guard exercises the exact corpus this guard checks).
fn demo_config() -> CollectionConfig {
    replay_demo_config()
}

fn main() {
    let explicit_dir = std::env::args().nth(1).map(std::path::PathBuf::from);
    let keep_files = explicit_dir.is_some();
    let dir = explicit_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("perfbug-replay-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).expect("cache dir");

    let config = demo_config();
    let fingerprint = config_fingerprint(&config);
    let path = dir.join(cache_file_name(
        "replay-demo",
        ExperimentKind::Core,
        fingerprint,
    ));
    let _ = std::fs::remove_file(&path);

    // Cold pass: simulate, train, save.
    println!("cold pass: collecting into {} ...", path.display());
    let t0 = Instant::now();
    let (cold, status) = collect_or_load(&path, &config).expect("cold collect");
    let cold_time = t0.elapsed();
    assert_eq!(status, CacheStatus::Collected);
    println!(
        "  collected {} probes x {} runs in {cold_time:.2?}",
        cold.probes.len(),
        cold.keys.len()
    );

    // Warm pass: replay from disk. The simulation counter must not move —
    // an evaluation-only rerun never touches the simulator.
    let sims_before = exec::simulations_run();
    let t1 = Instant::now();
    let (warm, status) = collect_or_load(&path, &config).expect("replay");
    let warm_time = t1.elapsed();
    assert_eq!(status, CacheStatus::Replayed);
    let resimulated = exec::simulations_run() - sims_before;
    println!("  replayed in {warm_time:.2?} (cold pass took {cold_time:.2?})");
    if resimulated != 0 {
        eprintln!("REPLAY GUARD FAILED: replay re-simulated {resimulated} runs");
        std::process::exit(1);
    }
    if warm != cold {
        eprintln!("REPLAY GUARD FAILED: replayed collection differs from the collected one");
        std::process::exit(1);
    }
    println!("  replay ran 0 simulations and round-tripped identically");

    // Evaluation-only phase on the replayed corpus.
    let eval = evaluate_two_stage(&warm, 0, Stage2Params::default());
    println!(
        "  evaluation from replay: TPR {:.2}  FPR {:.2}  ROC AUC {:.2}",
        eval.metrics.tpr, eval.metrics.fpr, eval.metrics.roc_auc
    );

    // A cache collected under a different configuration must be rejected,
    // not silently reused.
    let mut stale = config.clone();
    stale.window = 2;
    match load_collection(&path, config_fingerprint(&stale)) {
        Err(PersistError::Fingerprint { .. }) => {
            println!("  stale-config load correctly rejected (fingerprint mismatch)");
        }
        other => {
            eprintln!("REPLAY GUARD FAILED: stale cache not rejected: {other:?}");
            std::process::exit(1);
        }
    }

    // Sharded leg: collect the same corpus as two shard processes would,
    // then assemble the full collection from the shard files alone. The
    // assembled file must be byte-identical to the single-process one.
    println!("sharded pass: collecting 2 shards and assembling ...");
    let shards = 2;
    for index in 0..shards {
        let shard = ShardSpec::new(index, shards);
        let shard_path = dir.join(shard_file_name(
            "replay-demo",
            ExperimentKind::Core,
            fingerprint,
            index,
            shards,
        ));
        let _ = std::fs::remove_file(&shard_path);
        let part = collect_shard_or_resume(&shard_path, &config, shard).expect("shard");
        assert_eq!(part.status, CacheStatus::Collected);
        println!(
            "  shard {index}/{shards}: {} probes -> {}",
            part.collection.probes.len(),
            shard_path.display()
        );
    }
    let cold_bytes = std::fs::read(&path).expect("single-process corpus bytes");
    let _ = std::fs::remove_file(&path); // force assembly, not replay
    let assembled = match load_or_assemble(&path, ExperimentKind::Core, fingerprint) {
        Ok(Some((col, CacheStatus::Assembled))) => col,
        other => {
            eprintln!("REPLAY GUARD FAILED: shard assembly did not happen: {other:?}");
            std::process::exit(1);
        }
    };
    if assembled != cold || std::fs::read(&path).expect("assembled bytes") != cold_bytes {
        eprintln!("REPLAY GUARD FAILED: assembled corpus differs from the single-process one");
        std::process::exit(1);
    }
    println!("  2-shard assembly matches the single-process collection");

    // Streaming random access: one probe decoded through the chunk/offset
    // index, without materialising the corpus.
    let probe = (cold.probes.len() - 1) as u64;
    let mut reader = ProbeReader::open(&path, Some(fingerprint)).expect("probe reader");
    let rec = reader.read_probe(probe).expect("read probe");
    if rec.meta != cold.probes[probe as usize] || rec.overall != cold.overall_ipc[probe as usize] {
        eprintln!("REPLAY GUARD FAILED: random-access probe {probe} differs from the corpus");
        std::process::exit(1);
    }
    println!(
        "  random access: probe {probe} ({}) decoded from 1 of {} chunks",
        rec.meta.id,
        reader.chunk_index().len()
    );

    // Crash-recovery leg: tear shard 0's finished file into a part file
    // whose last chunk is cut mid-write (what a killed worker leaves
    // behind), then resume. The retry must salvage every intact chunk,
    // re-collect only the torn probe, and finish byte-identical to the
    // uninterrupted shard.
    println!("recovery pass: tearing shard 0 mid-chunk and resuming ...");
    let shard0 = ShardSpec::new(0, shards);
    let shard0_path = dir.join(shard_file_name(
        "replay-demo",
        ExperimentKind::Core,
        fingerprint,
        0,
        shards,
    ));
    let replayed = collect_shard_or_resume(&shard0_path, &config, shard0).expect("shard 0 loads");
    assert_eq!(replayed.status, CacheStatus::Replayed);
    let intact = replayed.collection;
    let bytes = std::fs::read(&shard0_path).expect("shard 0 bytes");
    // On a finished file, scan_part recovers the full probe prefix (the
    // footer reads as a torn tail); cutting 9 more bytes tears into the
    // last probe chunk's checksum.
    let durable = scan_part(&bytes).expect("scan").durable_len as usize;
    std::fs::write(part_path_for(&shard0_path), &bytes[..durable - 9]).expect("write part");
    std::fs::remove_file(&shard0_path).expect("remove shard 0");
    let sims_before = exec::simulations_run();
    let outcome = collect_shard_or_resume(&shard0_path, &config, shard0).expect("resume");
    let resumed_sims = exec::simulations_run() - sims_before;
    let expect_resumed = intact.probes.len() as u64 - 1;
    if outcome.resumed_probes != expect_resumed {
        eprintln!(
            "REPLAY GUARD FAILED: resume salvaged {} probes, expected {expect_resumed}",
            outcome.resumed_probes
        );
        std::process::exit(1);
    }
    let resumed_bytes = std::fs::read(&shard0_path).expect("resumed shard 0 bytes");
    if outcome.collection != intact || resumed_bytes != bytes {
        eprintln!("REPLAY GUARD FAILED: resumed shard differs from the uninterrupted one");
        std::process::exit(1);
    }
    println!(
        "  resumed {} of {} probes from the torn part ({} simulations re-run), \
         finished shard is byte-identical",
        expect_resumed,
        intact.probes.len(),
        resumed_sims
    );

    if keep_files {
        println!("keeping cache files in {} for inspection", dir.display());
    } else {
        for index in 0..shards {
            let _ = std::fs::remove_file(dir.join(shard_file_name(
                "replay-demo",
                ExperimentKind::Core,
                fingerprint,
                index,
                shards,
            )));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
    println!("replay guard passed");
}
