//! The detect workloads: one collect → persist → evaluate pass of the
//! core experiment (`core-detect`) or the memory experiment
//! (`mem-detect`), driven through the public front doors
//! (`persist::collect_or_load` / `collect_memory_or_load`, then
//! `evaluate_two_stage` and `evaluate_baseline`), with every output
//! checked.

use std::path::{Path, PathBuf};
use std::time::Instant;

use perfbug_core::baseline::BaselineParams;
use perfbug_core::bugs::{BugCatalog, MemBugCatalog};
use perfbug_core::exec;
use perfbug_core::experiment::{
    evaluate_baseline, evaluate_two_stage, pass_identity, simulation_units_per_probe,
    ArchPartition, Collection, CollectionConfig, ProbeScale,
};
use perfbug_core::memory::{mem_pass_identity, MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{self, CacheStatus, ExperimentKind, PersistError};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::stage2::Stage2Params;
use perfbug_core::tracecache::{self, TraceStore};
use perfbug_workloads::{benchmark, BenchmarkSpec};

use crate::stats::Checks;

/// Corpus digests (see [`corpus_digest`]) recorded when the benchmark was
/// introduced. `core-detect` has one per rotation of its benchmark list,
/// because the rotation orders the corpus.
const CORE_DIGESTS: [u64; CORE_BENCHMARKS.len() / ROTATION_STEP] = [
    0x1d35_dbab_49ab_878a,
    0xb7fb_b697_aca4_b67e,
    0x135f_74a7_2e17_1eae,
];
/// The `mem-detect` corpus digest (the seed does not change its inputs).
const MEM_DIGEST: u64 = 0x513c_b137_6009_6b0b;

/// The `core-detect` benchmarks: the suite of Table I without its four
/// costliest (401.bzip2, 426.mcf, 444.namd, 450.soplex), so that a pass
/// takes about 16 s at 2 threads and the traced run stays within budget.
const CORE_BENCHMARKS: [&str; 6] = [
    "400.perlbench",
    "403.gcc",
    "433.milc",
    "436.cactusADM",
    "458.sjeng",
    "462.libquantum",
];

/// The seed rotates the list in steps of the collection pipeline's probe
/// block (two probes on a host with at most two threads), so every
/// rotation simulates the same probes in the same blocks and only their
/// order changes: pass time and peak memory do not depend on the seed.
const ROTATION_STEP: usize = 2;

/// Cache-hit replays of the persisted corpus after each pass.
const REPLAYS_PER_PASS: usize = 50;

fn core_rotation(seed: u64) -> usize {
    (seed % CORE_DIGESTS.len() as u64) as usize
}

/// The experiment a detect workload runs.
pub enum Experiment {
    Core(CollectionConfig),
    Memory(MemCollectionConfig),
}

impl Experiment {
    /// GBT-250 over the 14-type core catalogue, the paper partition and
    /// default probe scale, one probe from each benchmark of the list.
    /// The seed rotates the round-robin start over the list; every
    /// rotation takes the whole list, so only the probe order changes.
    pub fn core(seed: u64, threads: usize) -> Self {
        let mut benchmarks: Vec<BenchmarkSpec> = CORE_BENCHMARKS
            .iter()
            .map(|name| benchmark(name).expect("Table I benchmark"))
            .collect();
        benchmarks.rotate_left(core_rotation(seed) * ROTATION_STEP);
        let mut config =
            CollectionConfig::new(vec![EngineSpec::gbt250()], BugCatalog::core_small());
        config.scale = ProbeScale::default();
        config.partition = ArchPartition::paper();
        config.max_probes = Some(benchmarks.len());
        config.benchmarks = benchmarks;
        config.threads = threads;
        Experiment::Core(config)
    }

    /// GBT-250 on AMAT over the full memory catalogue and the whole
    /// 22-SimPoint memory suite at default scale.
    pub fn memory(threads: usize) -> Self {
        let mut config = MemCollectionConfig::new(vec![EngineSpec::gbt250()], TargetMetric::Amat);
        config.catalog = MemBugCatalog::full();
        config.threads = threads;
        Experiment::Memory(config)
    }

    fn kind(&self) -> ExperimentKind {
        match self {
            Experiment::Core(_) => ExperimentKind::Core,
            Experiment::Memory(_) => ExperimentKind::Memory,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        match self {
            Experiment::Core(c) => persist::config_fingerprint(c),
            Experiment::Memory(c) => persist::mem_config_fingerprint(c),
        }
    }

    fn collect_or_load(&self, path: &Path) -> Result<(Collection, CacheStatus), PersistError> {
        match self {
            Experiment::Core(c) => persist::collect_or_load(path, c),
            Experiment::Memory(c) => persist::collect_memory_or_load(path, c),
        }
    }

    /// (probes of the pass, simulation units per probe), derived from the
    /// configuration without simulating.
    fn shape(&self) -> (usize, usize) {
        match self {
            Experiment::Core(c) => (
                pass_identity(c).total_probes,
                simulation_units_per_probe(&c.partition, &c.catalog),
            ),
            Experiment::Memory(c) => (
                mem_pass_identity(c).total_probes,
                mem_units_per_probe(&c.catalog),
            ),
        }
    }
}

/// Simulation units per probe of the memory experiment: one bug-free run
/// per Set-I design, and per evaluation design a bug-free run plus one
/// run per catalogue bug.
pub fn mem_units_per_probe(catalog: &MemBugCatalog) -> usize {
    let archs = perfbug_memsim::config::all();
    let train = archs
        .iter()
        .filter(|a| a.set == perfbug_memsim::ArchSet::I)
        .count();
    train + (archs.len() - train) * (1 + catalog.len())
}

/// A set-up detect workload.
pub struct Detect {
    pub exp: Experiment,
    probes: usize,
    units: usize,
    path: PathBuf,
    cache_dir: PathBuf,
    expected_digest: u64,
}

/// What one checked pass measured.
pub struct Pass {
    pub seconds: f64,
    pub col: Collection,
    pub simulations: u64,
}

impl Detect {
    /// Set-up: derives the pass shape, empties the cache directory and,
    /// for the memory experiment, warms the trace store (as `pbeval`
    /// does by default). `core-detect` builds its traces fresh, with no
    /// trace store.
    pub fn set_up(exp: Experiment, seed: u64, work: &Path, checks: &mut Checks) -> Detect {
        let expected_digest = match exp {
            Experiment::Core(_) => CORE_DIGESTS[core_rotation(seed)],
            Experiment::Memory(_) => MEM_DIGEST,
        };
        if let Experiment::Memory(config) = &exp {
            let dir = work.join("traces");
            let _ = std::fs::remove_dir_all(&dir);
            let store = TraceStore::new(&dir);
            for bench in perfbug_memsim::memory_suite() {
                let program = bench.program(&config.workload);
                if let Err(e) = store.open_or_build(&bench, &config.workload, &program) {
                    checks.fail("trace store warm-up", &format!("{}: {e}", bench.name));
                }
            }
            // Only set-up runs before this point; no thread reads the
            // environment concurrently.
            std::env::set_var(tracecache::TRACE_DIR_ENV, &dir);
        }
        let (probes, units) = exp.shape();
        let cache_dir = work.join("cache");
        let path = cache_dir.join(persist::cache_file_name(
            "perfbench",
            exp.kind(),
            exp.fingerprint(),
        ));
        let detect = Detect {
            exp,
            probes,
            units,
            path,
            cache_dir,
            expected_digest,
        };
        detect.empty_cache();
        detect
    }

    fn empty_cache(&self) {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        std::fs::create_dir_all(&self.cache_dir).expect("cache directory inside the checkout");
    }

    /// One collect → persist → evaluate pass into an emptied cache,
    /// followed by its output checks (outside the timed region).
    pub fn pass(&self, checks: &mut Checks) -> Option<Pass> {
        self.empty_cache();
        let sims0 = exec::simulations_run();
        let regen0 = exec::traces_regenerated();
        let rejections0 = tracecache::trace_cache_rejections();
        let t0 = Instant::now();
        let (col, status) = match self.exp.collect_or_load(&self.path) {
            Ok(hit) => hit,
            Err(e) => {
                checks.fail("pass", &e.to_string());
                return None;
            }
        };
        let two_stage = evaluate_two_stage(&col, 0, Stage2Params::default());
        let baseline = evaluate_baseline(&col, &BaselineParams::default());
        let seconds = t0.elapsed().as_secs_f64();
        let simulations = exec::simulations_run() - sims0;
        let regenerated = exec::traces_regenerated() - regen0;

        checks.check("pass.collected", status == CacheStatus::Collected, || {
            format!("cache status {status:?}")
        });
        let expected_sims = (self.probes * self.units) as u64;
        checks.check("pass.simulations_run", simulations == expected_sims, || {
            format!("{simulations} simulations, expected {expected_sims}")
        });
        checks.check("pass.probes", col.probes.len() == self.probes, || {
            format!("{} probes, expected {}", col.probes.len(), self.probes)
        });
        let expected_regen = match self.exp {
            Experiment::Core(_) => self.probes as u64,
            Experiment::Memory(_) => 0,
        };
        checks.check(
            "pass.traces_regenerated",
            regenerated == expected_regen,
            || format!("{regenerated} regenerated, expected {expected_regen}"),
        );
        let rejections = tracecache::trace_cache_rejections() - rejections0;
        checks.check("pass.trace_cache_rejections", rejections == 0, || {
            format!("{rejections} rejections")
        });
        let types = col.catalog.type_ids().len();
        for (name, eval) in [("two_stage", &two_stage), ("baseline", &baseline)] {
            checks.check(
                &format!("evaluate.{name}"),
                eval.folds.len() == types && eval.metrics.roc_auc.is_finite(),
                || {
                    format!(
                        "{} folds for {types} bug types, auc {}",
                        eval.folds.len(),
                        eval.metrics.roc_auc
                    )
                },
            );
        }
        match persist::load_collection(&self.path, self.exp.fingerprint()) {
            Ok(disk) => {
                checks.check("pass.disk_equals_memory", disk == col, || {
                    "corpus read back differs from the in-memory corpus".into()
                });
            }
            Err(e) => checks.fail("pass.read_back", &e.to_string()),
        }
        let digest = corpus_digest(&col);
        checks.check("pass.corpus_digest", digest == self.expected_digest, || {
            format!(
                "digest {digest:#018x}, recorded {:#018x}",
                self.expected_digest
            )
        });
        Some(Pass {
            seconds,
            col,
            simulations,
        })
    }

    /// Repeats the detection on the persisted corpus: each call of the
    /// front door must be a cache hit that simulates nothing and returns
    /// the same corpus. Returns each replay's latency in seconds.
    pub fn replays(&self, col: &Collection, checks: &mut Checks) -> Vec<f64> {
        let mut latencies = Vec::with_capacity(REPLAYS_PER_PASS);
        for _ in 0..REPLAYS_PER_PASS {
            let sims0 = exec::simulations_run();
            let t0 = Instant::now();
            let result = self.exp.collect_or_load(&self.path);
            let seconds = t0.elapsed().as_secs_f64();
            match result {
                Ok((replayed, status)) => {
                    let sims = exec::simulations_run() - sims0;
                    let ok =
                        checks.check("replay.cache_hit", status == CacheStatus::Replayed, || {
                            format!("cache status {status:?}")
                        }) & checks.check("replay.simulations_run", sims == 0, || {
                            format!("{sims} simulations")
                        }) & checks.check("replay.corpus", replayed == *col, || {
                            "replayed corpus differs".into()
                        });
                    if ok {
                        latencies.push(seconds);
                    }
                }
                Err(e) => checks.fail("replay", &e.to_string()),
            }
        }
        latencies
    }
}

/// FNV-1a digest of a corpus's values: run keys, probes, the overall
/// metric, each engine's name and deltas, and the aggregated baseline
/// features. Wall-clock timings and file bytes are not covered, so a
/// format change that keeps the values keeps the digest.
fn corpus_digest(col: &Collection) -> u64 {
    let mut b = Vec::new();
    let text = |b: &mut Vec<u8>, s: &str| {
        b.extend_from_slice(s.as_bytes());
        b.push(0);
    };
    for key in &col.keys {
        text(&mut b, &key.arch);
        text(&mut b, &format!("{:?}", key.set));
        b.extend_from_slice(&key.bug.map_or(u64::MAX, |i| i as u64).to_le_bytes());
    }
    for probe in &col.probes {
        text(&mut b, &probe.id);
        text(&mut b, &probe.benchmark);
        b.extend_from_slice(&probe.weight.to_bits().to_le_bytes());
    }
    let floats = |b: &mut Vec<u8>, values: &[f64]| {
        for v in values {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    };
    for row in &col.overall_ipc {
        floats(&mut b, row);
    }
    for engine in &col.engines {
        b.extend_from_slice(engine.name.as_bytes());
        for row in &engine.deltas {
            floats(&mut b, row);
        }
    }
    for probe in &col.agg_features {
        for row in probe {
            floats(&mut b, row);
        }
    }
    persist::fnv1a(&b)
}
