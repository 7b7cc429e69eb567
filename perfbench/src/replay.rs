//! The traced run of the detect workloads: one untraced end-to-end pass,
//! then a single-threaded replay of the same inputs through each layer's
//! public function, timed with spans, and cross-checked against the pass.
//!
//! The replay mirrors the collection pipeline step by step: programs and
//! SimPoint probes (`workloads`), one trace per probe (`workloads` or the
//! `tracecache`), one simulation per (probe, unit) (`uarch-sim` or
//! `mem-sim`), counter selection, stage-1 training and inference, then
//! stage-2 and the baseline on the stored corpus and its encode / decode
//! / save / load (`persist`).

use std::path::Path;

use perfbug_core::baseline::BaselineParams;
use perfbug_core::counter_select::{leakage_banned_counters, select_counters, CounterMode};
use perfbug_core::exec;
use perfbug_core::experiment::{evaluate_baseline, evaluate_two_stage};
use perfbug_core::persist;
use perfbug_core::stage1::{inference_error, EngineSpec, FeatureSpec, ProbeModel, RunSeries};
use perfbug_core::stage2::Stage2Params;
use perfbug_core::tracecache::{self, TraceProvider, TraceStore};
use perfbug_workloads::{BenchmarkSpec, Inst, Probe, RowMatrix, WorkloadScale};

use crate::detect::{Detect, Experiment};
use crate::stats::Checks;
use crate::trace::Tracer;
use crate::Metrics;

/// Stage-1 inference errors above this (or non-finite) are clamped, as
/// the collection pipeline does.
const DELTA_CEILING: f64 = 1e6;

/// The memory experiment's counter-selection candidates (composition and
/// rate columns only, as in the collection pipeline).
const MEM_COUNTER_CANDIDATES: [&str; 5] = [
    "l1d_miss_rate",
    "l2_miss_rate",
    "llc_miss_rate",
    "pf_accuracy",
    "mpki",
];

/// The (design, bug) simulation units of one probe: Set-I bug-free
/// training runs first, then per evaluation design its bug-free run and
/// one run per catalogue bug.
struct Grid {
    units: Vec<(usize, Option<usize>)>,
    train_units: Vec<usize>,
    val_units: Vec<usize>,
    key_units: Vec<usize>,
}

impl Grid {
    /// `train` and `eval` index the experiment's design list; `is_val`
    /// marks the evaluation designs whose bug-free run validates stage 1.
    fn build(train: &[usize], eval: &[(usize, bool)], n_bugs: usize) -> Grid {
        let mut grid = Grid {
            units: train.iter().map(|&a| (a, None)).collect(),
            train_units: (0..train.len()).collect(),
            val_units: Vec::new(),
            key_units: Vec::new(),
        };
        for &(arch, is_val) in eval {
            if is_val {
                grid.val_units.push(grid.units.len());
            }
            for bug in std::iter::once(None).chain((0..n_bugs).map(Some)) {
                grid.key_units.push(grid.units.len());
                grid.units.push((arch, bug));
            }
        }
        grid
    }
}

/// One simulated run, shaped for stage 1.
struct Sim {
    series: RunSeries,
    overall: f64,
    cycles: u64,
    insts: u64,
}

/// Counts gathered by the replay.
#[derive(Default)]
struct Counts {
    traces: u64,
    runs: u64,
    cycles: u64,
    insts: u64,
    selections: u64,
    models: u64,
    train_rows: u64,
}

type SelectProbes<'a> = Box<dyn Fn(Vec<Vec<Probe>>) -> Vec<(usize, Probe)> + 'a>;
type Simulate<'a> = Box<dyn Fn(usize, Option<usize>, &[Inst]) -> Sim + 'a>;
type SelectCounters<'a> = Box<dyn Fn(&[&RunSeries]) -> Vec<usize> + 'a>;

/// Everything the replay needs to know about one experiment.
struct Plan<'a> {
    benches: Vec<BenchmarkSpec>,
    scale: WorkloadScale,
    store: Option<TraceStore>,
    /// Picks the pass's probes (with their benchmark index) from each
    /// benchmark's SimPoint probes.
    select: SelectProbes<'a>,
    grid: Grid,
    engine: EngineSpec,
    sim_span: &'static str,
    simulate: Simulate<'a>,
    select_counters: SelectCounters<'a>,
    arch_features: bool,
    window: usize,
}

/// Round-robin probe selection across benchmarks, as the core pass makes
/// it: one probe from each benchmark in turn until `max` are taken.
fn round_robin(per_bench: Vec<Vec<Probe>>, max: Option<usize>) -> Vec<(usize, Probe)> {
    let total: usize = per_bench.iter().map(Vec::len).sum();
    let budget = max.unwrap_or(total).min(total);
    let mut taken = Vec::with_capacity(budget);
    let mut depth = 0;
    while taken.len() < budget {
        for (b, probes) in per_bench.iter().enumerate() {
            if taken.len() < budget && depth < probes.len() {
                taken.push((b, probes[depth].clone()));
            }
        }
        depth += 1;
    }
    taken
}

fn plan(exp: &Experiment) -> Plan<'_> {
    match exp {
        Experiment::Core(c) => {
            let archs: Vec<_> = c
                .partition
                .train
                .iter()
                .chain(c.partition.eval_archs())
                .collect();
            let n_train = c.partition.train.len();
            let eval: Vec<(usize, bool)> = (n_train..archs.len())
                .map(|a| (a, a - n_train < c.partition.val.len()))
                .collect();
            let grid = Grid::build(&(0..n_train).collect::<Vec<_>>(), &eval, c.catalog.len());
            let banned = leakage_banned_counters();
            Plan {
                benches: c.benchmarks.clone(),
                scale: c.scale.workload,
                store: None,
                select: Box::new(move |per_bench| round_robin(per_bench, c.max_probes)),
                grid,
                engine: c.engines[0].clone(),
                sim_span: "uarch.sim",
                simulate: Box::new(move |arch, bug, trace| {
                    let arch = archs[arch];
                    let bug = bug
                        .map(|i| c.catalog.variants()[i])
                        .or(c.presumed_bugfree_bug);
                    let run = perfbug_uarch::simulate(arch, bug, trace, c.scale.step_cycles);
                    let overall = run.overall_ipc();
                    Sim {
                        cycles: run.total_cycles,
                        insts: run.total_insts,
                        series: RunSeries {
                            rows: run.counter_rows,
                            target: run.ipc,
                            arch_features: arch.feature_vector(),
                        },
                        overall,
                    }
                }),
                select_counters: counter_selector(&c.counter_mode, banned),
                arch_features: c.arch_features,
                window: c.window.max(1),
            }
        }
        Experiment::Memory(c) => {
            let archs = perfbug_memsim::config::all();
            let train: Vec<usize> = (0..archs.len())
                .filter(|&i| archs[i].set == perfbug_memsim::ArchSet::I)
                .collect();
            let eval: Vec<(usize, bool)> = (0..archs.len())
                .filter(|&i| archs[i].set != perfbug_memsim::ArchSet::I)
                .map(|i| (i, archs[i].set == perfbug_memsim::ArchSet::II))
                .collect();
            let grid = Grid::build(&train, &eval, c.catalog.len());
            let banned: Vec<usize> = perfbug_memsim::mem_counter_names()
                .iter()
                .enumerate()
                .filter(|(_, n)| !MEM_COUNTER_CANDIDATES.contains(&n.to_string().as_str()))
                .map(|(i, _)| i)
                .collect();
            let metric = c.metric;
            Plan {
                benches: perfbug_memsim::memory_suite(),
                scale: c.workload,
                store: TraceStore::from_env().filter(|_| c.catalog.trace_invariant()),
                select: Box::new(move |per_bench| {
                    let mut probes: Vec<(usize, Probe)> = per_bench
                        .into_iter()
                        .enumerate()
                        .flat_map(|(b, ps)| ps.into_iter().map(move |p| (b, p)))
                        .collect();
                    if let Some(max) = c.max_probes {
                        probes.truncate(max);
                    }
                    probes
                }),
                grid,
                engine: c.engines[0].clone(),
                sim_span: "memsim.sim",
                simulate: Box::new(move |arch, bug, trace| {
                    let arch = &archs[arch];
                    let bug = bug.map(|i| c.catalog.variants()[i]);
                    let run = perfbug_memsim::simulate_memory(arch, bug, trace, c.step_cycles);
                    let (target, overall) = match metric {
                        perfbug_core::memory::TargetMetric::Ipc => {
                            (run.ipc.clone(), run.overall_ipc())
                        }
                        perfbug_core::memory::TargetMetric::Amat => {
                            (run.amat.clone(), run.overall_amat())
                        }
                    };
                    Sim {
                        cycles: run.total_cycles,
                        insts: run.total_insts,
                        series: RunSeries {
                            rows: run.counter_rows,
                            target,
                            arch_features: arch.feature_vector(),
                        },
                        overall,
                    }
                }),
                select_counters: counter_selector(&c.counter_mode, banned),
                arch_features: true,
                window: 1,
            }
        }
    }
}

/// Counter selection over a probe's pooled training runs, as the
/// collection pipeline makes it for `mode`.
fn counter_selector<'a>(mode: &'a CounterMode, banned: Vec<usize>) -> SelectCounters<'a> {
    Box::new(move |train| match mode {
        CounterMode::Automatic(thresholds) => {
            let (rows, target) = pool(train);
            select_counters(&rows, &target, thresholds, &banned)
        }
        CounterMode::Manual(cols) => cols.clone(),
    })
}

/// Pools the counter rows and targets of the training runs.
fn pool(train: &[&RunSeries]) -> (RowMatrix, Vec<f64>) {
    let mut rows = RowMatrix::new(0);
    let mut target = Vec::new();
    for run in train {
        rows.extend_from(&run.rows);
        target.extend_from_slice(&run.target);
    }
    (rows, target)
}

/// Runs the traced mode of a detect workload and returns its per-layer
/// metrics. `threads` is the thread count of the untraced pass.
pub fn traced(
    det: &Detect,
    threads: usize,
    work: &Path,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let Some(pass) = det.pass(checks) else {
        return;
    };
    let col = &pass.col;
    let plan = plan(&det.exp);
    let mut counts = Counts::default();
    let regen0 = exec::traces_regenerated();
    let rejections0 = tracecache::trace_cache_rejections();

    // Steps 1-6 and the write side of step 7, mirroring the pass.
    tracer.open("pass");
    tracer.open("workloads.probe_extract");
    let programs: Vec<_> = plan
        .benches
        .iter()
        .map(|b| b.program(&plan.scale))
        .collect();
    let per_bench: Vec<Vec<Probe>> = plan.benches.iter().map(|b| b.probes(&plan.scale)).collect();
    tracer.close();
    let probes = (plan.select)(per_bench);
    let provider = TraceProvider::new(plan.store.clone(), &plan.benches, plan.scale);
    let trace_span = if plan.store.is_some() {
        "tracecache.read"
    } else {
        "workloads.trace_gen"
    };
    let mut overall_ok = probes.len() == col.probes.len();
    let mut deltas_ok = overall_ok;
    for (pi, (bi, probe)) in probes.iter().enumerate() {
        let trace = tracer.span(trace_span, || provider.trace(probe, &programs[*bi]));
        counts.traces += 1;
        let sims: Vec<Sim> = plan
            .grid
            .units
            .iter()
            .map(|&(arch, bug)| tracer.span(plan.sim_span, || (plan.simulate)(arch, bug, &trace)))
            .collect();
        counts.runs += sims.len() as u64;
        counts.cycles += sims.iter().map(|s| s.cycles).sum::<u64>();
        counts.insts += sims.iter().map(|s| s.insts).sum::<u64>();
        let train: Vec<&RunSeries> = plan
            .grid
            .train_units
            .iter()
            .map(|&u| &sims[u].series)
            .collect();
        let val: Vec<&RunSeries> = plan
            .grid
            .val_units
            .iter()
            .map(|&u| &sims[u].series)
            .collect();
        let selected = tracer.span("counter_select", || (plan.select_counters)(&train));
        counts.selections += 1;
        let features = FeatureSpec {
            selected,
            arch_features: plan.arch_features,
            window: plan.window,
        };
        let model = tracer.span("stage1.train", || {
            ProbeModel::train(&plan.engine, features, &train, &val)
        });
        counts.models += 1;
        counts.train_rows += train.iter().map(|r| r.rows.len() as u64).sum::<u64>();
        let deltas: Vec<f64> = tracer.span("stage1.infer", || {
            plan.grid
                .key_units
                .iter()
                .map(|&u| {
                    let series = &sims[u].series;
                    let delta = inference_error(&series.target, &model.infer(series));
                    if delta.is_finite() && delta <= DELTA_CEILING {
                        delta
                    } else {
                        DELTA_CEILING
                    }
                })
                .collect()
        });
        if let (Some(meta), Some(stored), Some(stored_deltas)) = (
            col.probes.get(pi),
            col.overall_ipc.get(pi),
            col.engines[0].deltas.get(pi),
        ) {
            let overall: Vec<u64> = plan
                .grid
                .key_units
                .iter()
                .map(|&u| sims[u].overall.to_bits())
                .collect();
            let stored_bits: Vec<u64> = stored.iter().map(|v| v.to_bits()).collect();
            overall_ok &= meta.id == probe.id() && overall == stored_bits;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            deltas_ok &= bits(&deltas) == bits(stored_deltas);
        }
    }
    let two_stage = tracer.span("stage2.eval", || {
        evaluate_two_stage(col, 0, Stage2Params::default())
    });
    let baseline = tracer.span("baseline.eval", || {
        evaluate_baseline(col, &BaselineParams::default())
    });
    let fingerprint = det.exp.fingerprint();
    let copy = work.join("replay.pbcol");
    let saved = tracer.span("persist.write", || {
        persist::save_collection(&copy, col, fingerprint)
    });
    tracer.close();

    // The read side of step 7.
    tracer.open("persist.read");
    let bytes = tracer.span("persist.encode", || {
        persist::encode_collection(col, fingerprint)
    });
    let decoded = tracer.span("persist.decode", || {
        persist::decode_collection(&bytes, fingerprint)
    });
    let loaded = tracer.span("persist.load", || {
        persist::load_collection(&copy, fingerprint)
    });
    tracer.close();

    // For the memory experiment, regenerate every trace the store served
    // and require the two to agree (set-up work, outside the pass).
    if let (Some(_), Experiment::Memory(_)) = (&plan.store, &det.exp) {
        tracer.open("setup");
        let mut same = true;
        for (bi, probe) in &probes {
            let fresh = tracer.span("workloads.trace_gen", || probe.trace(&programs[*bi]));
            same &= fresh == provider.trace(probe, &programs[*bi]);
        }
        tracer.close();
        checks.check("traced.store_trace_equals_regenerated", same, || {
            "a trace served by the store differs from its regeneration".into()
        });
    }

    checks.check(
        "traced.runs_equal_pass",
        counts.runs == pass.simulations,
        || {
            format!(
                "replay ran {} simulations, the pass {}",
                counts.runs, pass.simulations
            )
        },
    );
    checks.check("traced.overall_bit_identical", overall_ok, || {
        "replayed overall metric differs from the stored corpus".into()
    });
    checks.check("traced.deltas_bit_identical", deltas_ok, || {
        "replayed stage-1 deltas differ from the stored corpus".into()
    });
    checks.check(
        "traced.evaluations",
        two_stage.folds.len() == baseline.folds.len(),
        || "stage-2 and baseline fold counts differ".into(),
    );
    checks.check(
        "traced.persist_roundtrip",
        match (&saved, &decoded, &loaded) {
            (Ok(()), Ok(d), Ok(l)) => d == col && l == col,
            _ => false,
        },
        || {
            format!(
                "save {saved:?}, decode ok {}, load ok {}",
                decoded.is_ok(),
                loaded.is_ok()
            )
        },
    );

    let selfs = tracer.self_seconds_under("pass");
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let busy: f64 = selfs.values().sum();
    let core_side = matches!(det.exp, Experiment::Core(_));
    let sim_s = s(plan.sim_span);

    m.set("workloads.probe_extract_s", s("workloads.probe_extract"));
    m.set(
        "workloads.trace_gen_s",
        tracer.total_seconds("workloads.trace_gen"),
    );
    m.set("workloads.traces", counts.traces as f64);
    m.set("tracecache.read_s", s("tracecache.read"));
    m.set(
        "tracecache.regenerated",
        (exec::traces_regenerated() - regen0) as f64,
    );
    m.set(
        "tracecache.rejections",
        (tracecache::trace_cache_rejections() - rejections0) as f64,
    );
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (runs, cycles, insts) = (
        counts.runs as f64,
        counts.cycles as f64,
        counts.insts as f64,
    );
    if core_side {
        m.set("uarch.sim_s", sim_s);
        m.set("uarch.runs", runs);
        m.set("uarch.sim_cycles", cycles);
        m.set("uarch.ns_per_cycle", per(sim_s * 1e9, cycles));
        m.set("uarch.minst_per_s", per(insts / 1e6, sim_s));
        m.set("uarch.ipc", per(insts, cycles));
    } else {
        m.set("memsim.sim_s", sim_s);
        m.set("memsim.runs", runs);
        m.set("memsim.us_per_run", per(sim_s * 1e6, runs));
        m.set("memsim.minst_per_s", per(insts / 1e6, sim_s));
    }
    m.set("counter_select.s", s("counter_select"));
    m.set("counter_select.calls", counts.selections as f64);
    m.set("stage1.train_s", s("stage1.train"));
    m.set("stage1.infer_s", s("stage1.infer"));
    m.set("stage1.models", counts.models as f64);
    m.set("stage1.train_rows", counts.train_rows as f64);
    m.set("stage2.eval_s", s("stage2.eval"));
    m.set("baseline.eval_s", s("baseline.eval"));
    let capacity = pass.seconds * threads as f64;
    m.set("exec.busy_s", busy);
    m.set("exec.parallel_efficiency", per(busy, capacity));
    m.set("exec.unattributed_s", capacity - busy);
    m.set("exec.simulations_run", pass.simulations as f64);
    m.set("persist.write_s", s("persist.write"));
    m.set("persist.encode_s", tracer.total_seconds("persist.encode"));
    m.set("persist.decode_s", tracer.total_seconds("persist.decode"));
    m.set("persist.load_s", tracer.total_seconds("persist.load"));
    m.set("persist.bytes", bytes.len() as f64);
}
