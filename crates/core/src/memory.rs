//! The memory-system variant of the methodology (§IV-D, Table VII).
//!
//! Identical two-stage pipeline, but probes run on the ChampSim-like cache
//! hierarchy simulator and the stage-1 target can be either IPC or AMAT.
//! [`MemCollectionConfig`] implements [`ExperimentConfig`], so the same
//! [`collect`](crate::experiment::collect) and persistence front doors run
//! it, and its results feed the same
//! [`Collection`](crate::experiment::Collection) / evaluation machinery as
//! the core experiment.

use perfbug_memsim::{self as memsim, simulate_memory, MemArchConfig, MemBugSpec};
use perfbug_uarch::ArchSet;
use perfbug_workloads::{Probe, Program, RowMatrix, WorkloadScale};

use crate::bugs::{BugCatalog, MemBugCatalog};
use crate::counter_select::{select_counters, CounterMode, SelectionThresholds};
use crate::exec;
use crate::experiment::{ExperimentConfig, PassIdentity, ProbeMeta, SimGrid};
use crate::persist::ExperimentKind;
use crate::stage1::{EngineSpec, FeatureSpec, RunSeries};
use crate::tracecache::{TraceProvider, TraceStore};
use perfbug_memsim::mem_counter_names;

/// Which per-step series the stage-1 models learn to infer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMetric {
    /// Committed instructions per cycle.
    Ipc,
    /// Average memory access time (the paper's memory-focused target).
    Amat,
}

impl TargetMetric {
    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            TargetMetric::Ipc => "IPC",
            TargetMetric::Amat => "AMAT",
        }
    }
}

/// Configuration of a memory-experiment collection pass.
#[derive(Debug, Clone)]
pub struct MemCollectionConfig {
    /// Workload scale (instructions per probe).
    pub workload: WorkloadScale,
    /// Counter sampling period in cycles.
    pub step_cycles: u64,
    /// Stage-1 engines.
    pub engines: Vec<EngineSpec>,
    /// Target metric (Table VII evaluates both IPC and AMAT).
    pub metric: TargetMetric,
    /// Counter selection mode.
    pub counter_mode: CounterMode,
    /// Memory bug catalogue.
    pub catalog: MemBugCatalog,
    /// Optional probe cap.
    pub max_probes: Option<usize>,
    /// Worker threads.
    pub threads: usize,
}

impl MemCollectionConfig {
    /// Default configuration for the Table VII experiment.
    pub fn new(engines: Vec<EngineSpec>, metric: TargetMetric) -> Self {
        MemCollectionConfig {
            workload: WorkloadScale::default(),
            step_cycles: 500,
            engines,
            metric,
            counter_mode: CounterMode::Automatic(SelectionThresholds {
                // AMAT correlates with fewer counters than IPC; keep the
                // paper's thresholds but let the fallback fill to 4.
                ..SelectionThresholds::default()
            }),
            catalog: MemBugCatalog::full(),
            max_probes: None,
            threads: exec::default_threads(),
        }
    }
}

fn mem_set(set: memsim::ArchSet) -> ArchSet {
    match set {
        memsim::ArchSet::I => ArchSet::I,
        memsim::ArchSet::II => ArchSet::II,
        memsim::ArchSet::III => ArchSet::III,
        memsim::ArchSet::IV => ArchSet::IV,
    }
}

/// Everything the memory experiment's
/// [`collect_streaming`](ExperimentConfig::collect_streaming) derives from
/// the configuration before any simulation runs. Units reference designs by
/// index into `archs` so the struct owns all of its data.
struct MemPreparedPass {
    suite: Vec<perfbug_workloads::BenchmarkSpec>,
    archs: Vec<MemArchConfig>,
    grid: SimGrid,
    programs: Vec<Program>,
    probes: Vec<(usize, Probe)>,
}

/// Builds the memory experiment's unit grid and probe list, validating
/// the configuration.
fn prepare_mem_pass(config: &MemCollectionConfig) -> MemPreparedPass {
    assert!(
        !config.engines.is_empty(),
        "collection needs at least one engine"
    );
    let archs = memsim::config::all();
    let train = (0..archs.len()).filter(|&i| archs[i].set == memsim::ArchSet::I);
    let eval = archs
        .iter()
        .enumerate()
        .filter(|(_, arch)| arch.set != memsim::ArchSet::I)
        .map(|(i, arch)| {
            let validates = arch.set == memsim::ArchSet::II;
            (i, arch.name.as_str(), mem_set(arch.set), validates)
        });
    let grid = SimGrid::build(train, eval, config.catalog.len());

    // Probes from the 22-SimPoint memory suite.
    let suite = memsim::memory_suite();
    let programs: Vec<Program> = suite.iter().map(|b| b.program(&config.workload)).collect();
    // SimPoint extraction is most of a pass's set-up, and it runs once
    // for the pass identity and once for the collection itself; the
    // benchmarks are independent, so they extract in parallel.
    let per_bench = exec::parallel_map(suite.len(), config.threads, |bi| {
        suite[bi].probes(&config.workload)
    });
    let mut probes: Vec<(usize, Probe)> = Vec::new();
    for (bi, bench_probes) in per_bench.into_iter().enumerate() {
        probes.extend(bench_probes.into_iter().map(|p| (bi, p)));
    }
    if let Some(max) = config.max_probes {
        probes.truncate(max);
    }
    assert!(!probes.is_empty(), "no memory probes extracted");

    MemPreparedPass {
        suite,
        archs,
        grid,
        programs,
        probes,
    }
}

/// Derives the [`PassIdentity`] of a memory configuration without
/// simulating anything ([`ExperimentConfig::pass_identity`]). The
/// identity's catalogue is the core-shaped mirror
/// ([`mem_catalog_as_core`]), matching what
/// [`collect`](crate::experiment::collect) stores in memory collections.
///
/// # Panics
///
/// As [`collect`](crate::experiment::collect).
pub fn mem_pass_identity(config: &MemCollectionConfig) -> PassIdentity {
    let pass = prepare_mem_pass(config);
    PassIdentity {
        keys: pass.grid.keys,
        engine_names: config.engines.iter().map(|e| e.name()).collect(),
        catalog: mem_catalog_as_core(&config.catalog),
        total_probes: pass.probes.len(),
    }
}

impl ExperimentConfig for MemCollectionConfig {
    const KIND: ExperimentKind = ExperimentKind::Memory;

    fn fingerprint(&self) -> u64 {
        crate::persist::mem_config_fingerprint(self)
    }

    fn pass_identity(&self) -> PassIdentity {
        mem_pass_identity(self)
    }

    fn collect_streaming<E>(
        &self,
        shard: exec::ShardSpec,
        skip: usize,
        mut sink: impl FnMut(ProbeMeta, exec::ProbeOutput) -> Result<(), E>,
    ) -> Result<usize, E> {
        let config = self;
        let pass = prepare_mem_pass(config);

        // Probe setup consults the persistent trace store before
        // regenerating any trace — gated on the PERFBUG_TRACE_DIR knob and
        // on every catalogue variant being trace-invariant, so a future
        // stream-perturbing family degrades to the uncached path instead
        // of replaying a trace it invalidates.
        let store = TraceStore::from_env().filter(|_| config.catalog.trace_invariant());
        let traces = TraceProvider::new(store, &pass.suite, config.workload);

        // The shared unit-grid driver runs the same task graph as the
        // core experiment; only the simulator and the counter-selection
        // policy differ, and the memory experiment captures no series.
        exec::collect_unit_grid_streaming(
            pass.probes.len(),
            config.threads,
            shard,
            skip,
            &pass.grid.roles,
            &config.engines,
            |pi| {
                let (bi, probe) = &pass.probes[pi];
                traces.trace(probe, &pass.programs[*bi])
            },
            |trace: &Vec<perfbug_workloads::Inst>, u| {
                let (ai, bug_idx) = pass.grid.units[u];
                let bug = bug_idx.map(|i| config.catalog.variants()[i]);
                mem_run(config, &pass.archs[ai], bug, trace)
            },
            |_pi, sims| FeatureSpec {
                selected: select_mem_counters(config, sims, &pass.grid.roles.train_units),
                arch_features: true,
                window: 1,
            },
            |_, _, _, _, _| None,
            |pi, output| {
                let (_, probe) = &pass.probes[pi];
                sink(
                    ProbeMeta {
                        id: probe.id(),
                        benchmark: probe.benchmark.clone(),
                        weight: probe.weight,
                    },
                    output,
                )
            },
        )?;
        Ok(pass.probes.len())
    }
}

/// Simulates one memory run and shapes it for stage 1.
fn mem_run(
    config: &MemCollectionConfig,
    arch: &MemArchConfig,
    bug: Option<MemBugSpec>,
    trace: &[perfbug_workloads::Inst],
) -> (RunSeries, f64) {
    let mr = simulate_memory(arch, bug, trace, config.step_cycles);
    let (target, overall) = match config.metric {
        TargetMetric::Ipc => (mr.ipc.clone(), mr.overall_ipc()),
        TargetMetric::Amat => (mr.amat.clone(), mr.overall_amat()),
    };
    (
        RunSeries {
            rows: mr.counter_rows,
            target,
            arch_features: arch.feature_vector(),
        },
        overall,
    )
}

/// Counter selection over the pooled Set-I runs of one probe.
fn select_mem_counters(
    config: &MemCollectionConfig,
    sims: &[(RunSeries, f64)],
    train_units: &[usize],
) -> Vec<usize> {
    match &config.counter_mode {
        CounterMode::Automatic(thresholds) => {
            let mut rows = RowMatrix::new(0);
            let mut target = Vec::new();
            for &u in train_units {
                rows.extend_from(&sims[u].0.rows);
                target.extend_from_slice(&sims[u].0.target);
            }
            // Same feature policy as the core experiment (see
            // `leakage_banned_counters`): only composition/rate columns
            // are candidates. "amat" is additionally the literal target
            // when TargetMetric::Amat is selected.
            let allowed = [
                "l1d_miss_rate",
                "l2_miss_rate",
                "llc_miss_rate",
                "pf_accuracy",
                "mpki",
            ];
            let banned: Vec<usize> = mem_counter_names()
                .iter()
                .enumerate()
                .filter(|(_, n)| !allowed.contains(&n.to_string().as_str()))
                .map(|(i, _)| i)
                .collect();
            select_counters(&rows, &target, thresholds, &banned)
        }
        CounterMode::Manual(cols) => cols.clone(),
    }
}

/// Mirrors a memory catalogue into core-bug placeholders so the shared
/// [`Collection`](crate::experiment::Collection) evaluation (which
/// consults type ids and names) works unchanged. The mapping preserves
/// type ids (1–8) and variant order.
pub fn mem_catalog_as_core(catalog: &MemBugCatalog) -> BugCatalog {
    use perfbug_uarch::BugSpec;
    // Type ids must match the memory catalogue's variant-to-type mapping;
    // the concrete parameters of these placeholder specs are never used by
    // the evaluation (only `type_id`/`type_name` are consulted), but the
    // ids must line up 1:1.
    let placeholder = |type_id: u32| -> BugSpec {
        match type_id {
            1 => BugSpec::SerializeOpcode {
                x: perfbug_workloads::Opcode::Xor,
            },
            2 => BugSpec::IssueOnlyIfOldest {
                x: perfbug_workloads::Opcode::Xor,
            },
            3 => BugSpec::IfOldestIssueOnlyX {
                x: perfbug_workloads::Opcode::Xor,
            },
            4 => BugSpec::DelayIfDependsOn {
                x: perfbug_workloads::Opcode::Add,
                y: perfbug_workloads::Opcode::Load,
                t: 1,
            },
            5 => BugSpec::IqBelowDelay { n: 1, t: 1 },
            6 => BugSpec::RobBelowDelay { n: 1, t: 1 },
            7 => BugSpec::MispredictExtraDelay { t: 1 },
            _ => BugSpec::StoresToLineDelay { n: 1, t: 1 },
        }
    };
    BugCatalog::new(
        catalog
            .variants()
            .iter()
            .map(|m| placeholder(m.type_id()))
            .collect(),
    )
}

/// Human-readable names of the memory bug variants, aligned with the
/// collection's catalogue order.
pub fn mem_variant_names(catalog: &MemBugCatalog) -> Vec<String> {
    catalog.variants().iter().map(|v| v.describe()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{collect, collect_sharded, evaluate_two_stage};
    use crate::stage2::Stage2Params;
    use perfbug_ml::GbtParams;

    fn tiny_mem_config() -> MemCollectionConfig {
        let mut config = MemCollectionConfig::new(
            vec![EngineSpec::Gbt(GbtParams {
                n_trees: 30,
                ..GbtParams::default()
            })],
            TargetMetric::Amat,
        );
        config.workload = WorkloadScale::tiny();
        config.step_cycles = 300;
        config.max_probes = Some(5);
        config.catalog = MemBugCatalog::full();
        config
    }

    #[test]
    fn memory_collection_shapes() {
        let config = tiny_mem_config();
        let col = collect(&config);
        assert_eq!(col.probes.len(), 5);
        // 7 non-Set-I designs x (1 + 10 bugs).
        assert_eq!(col.keys.len(), 7 * 11);
        assert_eq!(col.engines[0].deltas.len(), 5);
    }

    #[test]
    fn memory_detection_runs_end_to_end() {
        let config = tiny_mem_config();
        let col = collect(&config);
        let eval = evaluate_two_stage(&col, 0, Stage2Params::default());
        assert!(eval.metrics.roc_auc >= 0.0);
        assert_eq!(eval.folds.len(), 6); // six memory bug types
    }

    #[test]
    fn sharded_memory_collection_merges_to_the_full_one() {
        use crate::persist::{
            mem_config_fingerprint, merge_collections, ExperimentKind, FileHeader, ShardManifest,
            CORPUS_REVISION,
        };
        let config = tiny_mem_config();
        let mut full = collect(&config);
        let fingerprint = mem_config_fingerprint(&config);
        let parts: Vec<_> = (0..2)
            .map(|index| {
                let shard = exec::ShardSpec::new(index, 2);
                let (col, total) = collect_sharded(&config, shard);
                let header = FileHeader {
                    kind: ExperimentKind::Memory,
                    corpus_revision: CORPUS_REVISION,
                    fingerprint,
                    manifest: ShardManifest::of(shard, total),
                };
                (col, header)
            })
            .collect();
        let (mut merged, header) = merge_collections(parts).expect("merge");
        assert!(header.manifest.is_full());
        assert_eq!(header.kind, ExperimentKind::Memory);
        // Wall-clock timings are the only nondeterministic fields.
        for col in [&mut merged, &mut full] {
            for engine in &mut col.engines {
                engine.train_time = std::time::Duration::ZERO;
                engine.infer_time = std::time::Duration::ZERO;
            }
        }
        assert_eq!(merged, full);
    }

    #[test]
    fn catalog_mirror_preserves_types() {
        let mem = MemBugCatalog::full();
        let core = mem_catalog_as_core(&mem);
        assert_eq!(core.len(), mem.len());
        assert_eq!(core.type_ids(), mem.type_ids());
        for t in mem.type_ids() {
            assert_eq!(core.variants_of_type(t), mem.variants_of_type(t));
        }
    }
}
