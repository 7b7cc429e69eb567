//! Run-level parallel execution engine.
//!
//! The collection phase of the methodology is embarrassingly parallel at
//! *run* granularity — every (probe, design, bug) simulation, every
//! (probe, engine) stage-1 training job and every inference over a design
//! under test is independent once its inputs exist — but the work is
//! heavily skewed: buggy runs stall pipelines for many more cycles than
//! healthy ones, training sets differ by orders of magnitude between
//! probes, and neural engines train far longer than boosted trees. This
//! module provides the schedulers every collection pass
//! (`experiment::collect` and the persistence front doors, for either
//! experiment) and the baseline's fold loop are built on:
//!
//! * [`collect_unit_grid_streaming`] — the shared collection driver over a
//!   (probe × unit) simulation grid: one pool of scoped workers per pass
//!   running a per-probe task graph (trace → simulations → counter
//!   selection → training per engine → inference per chunk of keys), with
//!   a bounded admission window and in-order emission through a reorder
//!   buffer. The core and memory experiments parameterise this single
//!   driver with their trace builder, simulator and counter-selection
//!   policy;
//! * [`parallel_map`] — an order-preserving scoped-thread map over a few
//!   dozen independent tasks (per-benchmark probe extraction, the
//!   baseline's leave-one-type-out folds), byte-identical for any worker
//!   count;
//! * [`simulations_run`] and [`stage1_times`] — process-wide tallies of
//!   what the pool did, sampled around a pass by replay guards and bench
//!   targets;
//! * [`ShardSpec`] — multi-process scale-out. A shard restricts the driver
//!   to a deterministic contiguous probe range of the grid; because every
//!   probe's pipeline is independent and deterministic, the union of any
//!   shard partition's outputs is identical to a single-process run. The
//!   persistence layer (`crate::persist`) gives shards an on-disk merge
//!   format (see `docs/FORMAT.md` and `docs/ARCHITECTURE.md`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::experiment::{CapturedSeries, DELTA_CEILING};
use crate::stage1::{inference_error, EngineSpec, FeatureSpec, ProbeModel, RunSeries};

/// The number of worker threads to use when the caller does not override
/// it: the machine's available parallelism (1 when that cannot be
/// determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `task(i)` for every index in `0..n_tasks` on up to `threads`
/// scoped workers and returns the results in index order, so the output
/// is identical for any worker count. Workers claim the next unclaimed
/// index from one shared counter, so a slow task never idles the others;
/// with one worker (or at most one task) the map runs inline.
pub fn parallel_map<T, F>(n_tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n_tasks.max(1));
    if threads == 1 {
        return (0..n_tasks).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                return done;
            }
            done.push((i, task(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(claim)).collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, value) in done {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

// --------------------------------------------------------------------------
// Shared unit-grid collection driver
// --------------------------------------------------------------------------

/// Process-wide count of simulation units run by
/// [`collect_unit_grid_streaming`].
///
/// Incremented once per (probe, unit) simulation task. The replay tooling
/// (`examples/replay.rs`, the CI replay guard) samples it around a cache
/// load to prove that an evaluation-only replay performed zero
/// simulations.
static SIMULATIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of simulation units run by this process so far.
pub fn simulations_run() -> u64 {
    SIMULATIONS.load(Ordering::Relaxed)
}

/// Wall-clock stage-1 time one engine spent in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stage1Time {
    /// Summed over the engine's training tasks.
    pub train: Duration,
    /// Summed over the engine's inference tasks.
    pub infer: Duration,
}

/// Process-wide stage-1 wall-clock tally per engine name, fed by the
/// train and infer tasks of [`collect_unit_grid_streaming`]. Wall-clock
/// readings live here and never in a [`Collection`](crate::experiment::Collection),
/// so corpora stay deterministic.
static STAGE1_TIMES: Mutex<BTreeMap<String, Stage1Time>> = Mutex::new(BTreeMap::new());

/// Stage-1 wall-clock time per engine name spent by this process so far.
/// Sampled before and after a collection, the difference is that pass's
/// training and inference time; an engine whose entry did not move was
/// not run in this process (its corpus was replayed or collected by
/// other processes).
pub fn stage1_times() -> BTreeMap<String, Stage1Time> {
    STAGE1_TIMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Adds one task's wall-clock time to `engine`'s tally.
fn note_stage1_time(engine: &EngineSpec, time: Stage1Time) {
    let mut tally = STAGE1_TIMES.lock().unwrap_or_else(PoisonError::into_inner);
    let entry = tally.entry(engine.name()).or_default();
    entry.train += time.train;
    entry.infer += time.infer;
}

/// Process-wide count of probe traces regenerated from their workload
/// program (`Probe::trace`) by the collection paths.
///
/// The trace-cache tooling (`examples/trace_cache.rs`, the CI trace-cache
/// guard, `core/tests/trace_equiv.rs`) samples it around a
/// warm collection pass to prove that a populated
/// [`TraceStore`](crate::tracecache::TraceStore) serves every trace from
/// disk — zero regenerations — while cold passes and cache rejections are
/// visible as a non-zero delta.
static TRACE_REGENERATIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of probe traces regenerated by this process so far.
pub fn traces_regenerated() -> u64 {
    TRACE_REGENERATIONS.load(Ordering::Relaxed)
}

/// Records one trace regeneration (called by every collection-path
/// `Probe::trace` site, cached or not).
pub(crate) fn note_trace_regenerated() {
    TRACE_REGENERATIONS.fetch_add(1, Ordering::Relaxed);
}

/// One process's slice of a sharded collection pass.
///
/// A shard owns a deterministic contiguous range of the probe axis of the
/// (probe × unit) grid — the same near-equal partition for every process,
/// so `count` cooperating processes cover every probe exactly once. Shard
/// 0 of 1 ([`ShardSpec::full`]) is the unsharded single-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the probe axis is split into.
    pub count: usize,
}

impl ShardSpec {
    /// Builds a shard spec, validating `index < count`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(count > 0, "shard count must be at least 1");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardSpec { index, count }
    }

    /// The unsharded spec: one shard covering everything.
    pub fn full() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Parses the canonical `<index>/<count>` notation (e.g. `0/4`) used
    /// by `PERFBUG_SHARD` and the orchestrator CLIs.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (index, count) = raw
            .split_once('/')
            .ok_or_else(|| format!("shard spec must be <index>/<count> (e.g. 0/4), got {raw:?}"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in {raw:?}"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in {raw:?}"))?;
        if count == 0 {
            return Err(format!("shard count must be at least 1 in {raw:?}"));
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this spec covers the whole probe range by itself.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// The contiguous probe range this shard owns out of `n_probes`.
    ///
    /// Near-equal partition: the first `n_probes % count` shards take one
    /// extra probe. Shards beyond the probe count legitimately own an
    /// empty range.
    pub fn probe_range(&self, n_probes: usize) -> std::ops::Range<usize> {
        let base = n_probes / self.count;
        let extra = n_probes % self.count;
        let start = self.index * base + self.index.min(extra);
        let len = base + usize::from(self.index < extra);
        start..start + len
    }
}

/// The index structure of one collection pass's simulation-unit grid.
///
/// A *unit* is one distinct (design, bug) combination; every probe
/// simulates each unit exactly once and the result is shared by all its
/// consumers. The vectors index into `0..n_units`.
#[derive(Debug, Clone, Default)]
pub struct UnitGrid {
    /// Number of distinct units per probe.
    pub n_units: usize,
    /// Units providing stage-1 training runs (Set-I bug-free designs).
    pub train_units: Vec<usize>,
    /// Units providing stage-1 validation runs (Set-II bug-free designs).
    pub val_units: Vec<usize>,
    /// Unit of each evaluation run key, in key order.
    pub key_units: Vec<usize>,
}

/// One engine's stage-1 output for one probe, as surfaced per probe by
/// [`collect_unit_grid_streaming`].
#[derive(Debug)]
pub struct EngineProbeOutput {
    /// Eq.-(1) inference errors for this probe, one per run key.
    pub deltas: Vec<f64>,
    /// Captured (simulated, inferred) series, in key order.
    pub captures: Vec<CapturedSeries>,
}

/// Everything one probe's pipeline produced, handed to the
/// [`collect_unit_grid_streaming`] completion callback once the probe and
/// every probe before it have finished.
#[derive(Debug)]
pub struct ProbeOutput {
    /// Overall target metric, one per run key.
    pub overall: Vec<f64>,
    /// Aggregated per-run baseline features, one row per run key.
    pub agg: Vec<Vec<f64>>,
    /// Per-engine stage-1 outputs, in configured engine order.
    pub engines: Vec<EngineProbeOutput>,
}

/// Key units per stage-1 inference task: small enough that one probe's
/// inference spreads over every worker, large enough that claiming a
/// task costs nothing next to running it.
const INFER_CHUNK: usize = 8;

/// The task kinds of a collection pass, most downstream first. Workers
/// claim the earliest kind that has a ready task, so admitted probes
/// drain, and free their memory, before upstream work starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    /// Stage-1 inference of one engine over one chunk of key units.
    Infer,
    /// Stage-1 training of one engine.
    Train,
    /// Counter selection and the baseline aggregates.
    Prepare,
    /// One (probe, unit) simulation.
    Simulate,
    /// The probe's trace.
    Trace,
}

/// One ready task. The derived order is the claim order: stage, then the
/// lowest probe, then engine and item (the unit or the chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Task {
    stage: Stage,
    probe: usize,
    engine: usize,
    item: usize,
}

/// Every simulation result of one probe, by unit.
type Runs = Arc<Vec<(RunSeries, f64)>>;

/// The inputs of a claimed task, cloned out of the pool under its lock.
enum Job<T> {
    Trace,
    Simulate(Arc<T>),
    Prepare(Runs),
    Train(Runs, FeatureSpec),
    Infer(Runs, Arc<ProbeModel>),
}

/// The result of a finished task, handed back to the pool.
enum Done<T> {
    Trace(T),
    Simulate((RunSeries, f64)),
    Prepare(FeatureSpec, Vec<Vec<f64>>, Vec<f64>),
    Train(ProbeModel),
    Infer(InferChunk),
}

/// One inference task's slice of an engine's output, in key order.
struct InferChunk {
    deltas: Vec<f64>,
    captures: Vec<CapturedSeries>,
}

/// One engine's state within an admitted probe.
struct EngineState {
    model: Option<Arc<ProbeModel>>,
    chunks: Vec<Option<InferChunk>>,
}

/// An admitted probe's pipeline, held by the pool until it is emitted.
struct Resident<T> {
    /// Tasks of this probe not yet finished; 0 means ready to emit.
    left: usize,
    /// The trace, from its task until the last simulation finishes.
    trace: Option<Arc<T>>,
    /// Simulation results by unit, as they arrive.
    arrived: Vec<Option<(RunSeries, f64)>>,
    sims_left: usize,
    /// Every simulation result, shared by the stage-1 tasks.
    runs: Option<Runs>,
    features: Option<FeatureSpec>,
    overall: Vec<f64>,
    agg: Vec<Vec<f64>>,
    engines: Vec<EngineState>,
}

impl<T> Resident<T> {
    fn into_output(self) -> ProbeOutput {
        let engines = self.engines.into_iter().map(|engine| {
            let mut out = EngineProbeOutput {
                deltas: Vec::with_capacity(self.overall.len()),
                captures: Vec::new(),
            };
            for chunk in engine.chunks.into_iter().flatten() {
                out.deltas.extend(chunk.deltas);
                out.captures.extend(chunk.captures);
            }
            out
        });
        ProbeOutput {
            engines: engines.collect(),
            overall: self.overall,
            agg: self.agg,
        }
    }
}

/// The scheduler state of one collection pass.
struct Pool<T> {
    /// Ready tasks; the smallest is claimed first.
    ready: BinaryHeap<Reverse<Task>>,
    /// Admitted probes not yet emitted; `window[0]` is probe `next_emit`.
    window: VecDeque<Resident<T>>,
    next_emit: usize,
    /// One past the last probe of the pass.
    end: usize,
    /// Most probes admitted and not yet emitted.
    cap: usize,
    /// Tasks claimed and not yet finished.
    running: usize,
    /// Set by an `on_probe` error or a panic: nothing is claimed after it.
    stop: bool,
    n_units: usize,
    n_engines: usize,
    n_chunks: usize,
}

impl<T> Pool<T> {
    /// Admits probes, in order, until the window is full.
    fn admit(&mut self) {
        while self.window.len() < self.cap && self.next_emit + self.window.len() < self.end {
            let probe = self.next_emit + self.window.len();
            self.window.push_back(Resident {
                left: 2 + self.n_units + self.n_engines * (1 + self.n_chunks),
                trace: None,
                arrived: (0..self.n_units).map(|_| None).collect(),
                sims_left: self.n_units,
                runs: None,
                features: None,
                overall: Vec::new(),
                agg: Vec::new(),
                engines: (0..self.n_engines)
                    .map(|_| EngineState {
                        model: None,
                        chunks: (0..self.n_chunks).map(|_| None).collect(),
                    })
                    .collect(),
            });
            self.ready.push(Reverse(Task {
                stage: Stage::Trace,
                probe,
                engine: 0,
                item: 0,
            }));
        }
    }

    /// Whether no task is ready or running and none can arrive.
    fn drained(&self) -> bool {
        self.ready.is_empty() && self.running == 0 && self.next_emit + self.window.len() == self.end
    }

    fn claim(&mut self) -> Option<(Task, Job<T>)> {
        let Reverse(task) = self.ready.pop()?;
        let r = &self.window[task.probe - self.next_emit];
        let runs = || Arc::clone(r.runs.as_ref().expect("simulations finish before stage 1"));
        let job = match task.stage {
            Stage::Trace => Job::Trace,
            Stage::Simulate => Job::Simulate(Arc::clone(
                r.trace.as_ref().expect("trace made before its simulations"),
            )),
            Stage::Prepare => Job::Prepare(runs()),
            Stage::Train => Job::Train(
                runs(),
                r.features.clone().expect("prepared before training"),
            ),
            Stage::Infer => Job::Infer(
                runs(),
                Arc::clone(
                    r.engines[task.engine]
                        .model
                        .as_ref()
                        .expect("trained before inference"),
                ),
            ),
        };
        self.running += 1;
        Some((task, job))
    }

    /// Records a finished task and queues the tasks it unblocks.
    fn finish(&mut self, task: Task, done: Done<T>) {
        let Pool {
            ready,
            window,
            next_emit,
            running,
            n_units,
            n_engines,
            n_chunks,
            ..
        } = self;
        *running -= 1;
        let r = &mut window[task.probe - *next_emit];
        r.left -= 1;
        let mut queue = |stage, engine, item| {
            ready.push(Reverse(Task {
                stage,
                probe: task.probe,
                engine,
                item,
            }))
        };
        match done {
            Done::Trace(trace) => {
                r.trace = Some(Arc::new(trace));
                (0..*n_units).for_each(|u| queue(Stage::Simulate, 0, u));
            }
            Done::Simulate(run) => {
                r.arrived[task.item] = Some(run);
                r.sims_left -= 1;
            }
            Done::Prepare(features, agg, overall) => {
                r.features = Some(features);
                r.agg = agg;
                r.overall = overall;
                (0..*n_engines).for_each(|e| queue(Stage::Train, e, 0));
            }
            Done::Train(model) => {
                r.engines[task.engine].model = Some(Arc::new(model));
                (0..*n_chunks).for_each(|c| queue(Stage::Infer, task.engine, c));
            }
            Done::Infer(chunk) => r.engines[task.engine].chunks[task.item] = Some(chunk),
        }
        if r.sims_left == 0 && r.trace.is_some() {
            // The last simulation: the trace goes, the results are shared.
            r.trace = None;
            let runs = r
                .arrived
                .drain(..)
                .map(|run| run.expect("every unit simulated"));
            r.runs = Some(Arc::new(runs.collect()));
            queue(Stage::Prepare, 0, 0);
        }
        if r.left == 0 {
            // Only the outputs wait in the reorder buffer.
            r.runs = None;
            r.engines.iter_mut().for_each(|e| e.model = None);
        }
    }
}

/// A [`Pool`] shared by the workers and the emitting thread.
struct Shared<T> {
    pool: Mutex<Pool<T>>,
    /// Signalled whenever a task finishes or probes are admitted.
    wake: Condvar,
}

impl<T> Shared<T> {
    // Poisoning is ignored: a panicking thread sets `stop` on its way
    // out, and once `stop` is set no thread reads any other field.
    fn lock(&self) -> MutexGuard<'_, Pool<T>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Pool<T>>) -> MutexGuard<'a, Pool<T>> {
        self.wake
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn stop(&self) {
        self.lock().stop = true;
        self.wake.notify_all();
    }
}

/// Stops the pass when dropped by an unwinding thread, so no other
/// thread waits forever for a task that will never finish.
struct StopOnPanic<'a, T>(&'a Shared<T>);

impl<T> Drop for StopOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// Mean counter row, design features and overall metric of each key
/// unit: the baseline's aggregated features, one row per run key.
fn aggregate(grid: &UnitGrid, runs: &[(RunSeries, f64)]) -> Vec<Vec<f64>> {
    grid.key_units
        .iter()
        .map(|&u| {
            let (series, overall) = &runs[u];
            let n = series.rows.len().max(1) as f64;
            let mut mean = vec![0.0; series.rows.width()];
            for row in &series.rows {
                for (m, v) in mean.iter_mut().zip(row) {
                    *m += v;
                }
            }
            mean.iter_mut().for_each(|m| *m /= n);
            mean.extend_from_slice(&series.arch_features);
            mean.push(*overall);
            mean
        })
        .collect()
}

/// Runs one collection pass over a (probe × unit) grid as a task graph
/// on one pool of `threads` scoped workers. Each probe's tasks are:
///
/// 1. its trace (`make_trace`);
/// 2. one simulation per unit (`simulate`), queued when the trace is made;
/// 3. **prepare** — counter selection (`prepare`) plus the baseline's
///    aggregated mean-row features and overall-metric vector, queued when
///    the last simulation finishes (the trace is dropped then);
/// 4. stage-1 training, one task per engine, queued after prepare;
/// 5. stage-1 inference, one task per fixed-size chunk of key units,
///    queued when its engine is trained. Each yields Eq.-(1) inference
///    errors (ceiling-clamped at `experiment::DELTA_CEILING`) and
///    optional captured series (`capture`).
///
/// Workers claim the most downstream ready task, inference first and
/// trace last, breaking ties by the lowest probe index, so admitted
/// probes drain before new ones start. At most `max(threads, 2)` probes
/// are admitted and not yet emitted, which bounds peak memory; a probe is
/// admitted only when an earlier one has been emitted.
///
/// Each probe's complete output is handed to `on_probe(absolute probe
/// index, output)` on the calling thread, in strictly increasing probe
/// order: a finished probe waits in a reorder buffer until every earlier
/// probe has been emitted. The callback may fail — an `Err` stops new
/// claims, lets tasks already running finish, and is returned. A panic in
/// any task or callback stops the pass and is re-raised on the calling
/// thread once every worker has exited.
///
/// `shard` restricts the driver to that shard's probe range
/// ([`ShardSpec::probe_range`]); probe indices handed to the callbacks are
/// always absolute grid indices, so a probe's pipeline is bit-identical
/// whether it runs in a full pass or inside any shard. `skip` drops the
/// first `skip` probes of the shard's range without simulating them — the
/// resume path: a crashed worker whose durable prefix already holds
/// `skip` probes continues from the first missing one.
///
/// Every value depends only on its own (probe, unit) inputs and is
/// assembled in unit, key and engine order, so the output is identical
/// for any worker count, any interleaving and any `skip`.
// One parameter per pipeline customisation point; bundling them into a
// struct of closures would only move the argument list.
#[allow(clippy::too_many_arguments)]
pub fn collect_unit_grid_streaming<T, MkTrace, Sim, Prep, Cap, E>(
    n_probes: usize,
    threads: usize,
    shard: ShardSpec,
    skip: usize,
    grid: &UnitGrid,
    engines: &[EngineSpec],
    make_trace: MkTrace,
    simulate: Sim,
    prepare: Prep,
    capture: Cap,
    mut on_probe: impl FnMut(usize, ProbeOutput) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send + Sync,
    MkTrace: Fn(usize) -> T + Sync,
    Sim: Fn(&T, usize) -> (RunSeries, f64) + Sync,
    Prep: Fn(usize, &[(RunSeries, f64)]) -> FeatureSpec + Sync,
    Cap: Fn(usize, usize, &EngineSpec, &RunSeries, &[f64]) -> Option<CapturedSeries> + Sync,
{
    let threads = threads.max(1);
    let range = shard.probe_range(n_probes);
    let n_keys = grid.key_units.len();
    let mut pool = Pool {
        ready: BinaryHeap::new(),
        window: VecDeque::new(),
        next_emit: range.start + skip.min(range.len()),
        end: range.end,
        cap: threads.max(2),
        running: 0,
        stop: false,
        n_units: grid.n_units,
        n_engines: engines.len(),
        n_chunks: n_keys.div_ceil(INFER_CHUNK),
    };
    pool.admit();
    let shared = Shared {
        pool: Mutex::new(pool),
        wake: Condvar::new(),
    };

    let run = |task: Task, job: Job<T>| -> Done<T> {
        match job {
            Job::Trace => Done::Trace(make_trace(task.probe)),
            Job::Simulate(trace) => {
                SIMULATIONS.fetch_add(1, Ordering::Relaxed);
                Done::Simulate(simulate(&trace, task.item))
            }
            Job::Prepare(runs) => {
                let features = prepare(task.probe, &runs);
                let overall = grid.key_units.iter().map(|&u| runs[u].1).collect();
                Done::Prepare(features, aggregate(grid, &runs), overall)
            }
            Job::Train(runs, features) => {
                let pick = |units: &[usize]| units.iter().map(|&u| &runs[u].0).collect::<Vec<_>>();
                let (train, val) = (pick(&grid.train_units), pick(&grid.val_units));
                let engine = &engines[task.engine];
                let t0 = Instant::now();
                let model = ProbeModel::train(engine, features, &train, &val);
                let train = t0.elapsed();
                note_stage1_time(
                    engine,
                    Stage1Time {
                        train,
                        ..Default::default()
                    },
                );
                Done::Train(model)
            }
            Job::Infer(runs, model) => {
                let t0 = Instant::now();
                let engine = &engines[task.engine];
                let first = task.item * INFER_CHUNK;
                let keys = &grid.key_units[first..(first + INFER_CHUNK).min(n_keys)];
                let mut chunk = InferChunk {
                    deltas: Vec::with_capacity(keys.len()),
                    captures: Vec::new(),
                };
                for (pos, &u) in (first..).zip(keys) {
                    let series = &runs[u].0;
                    let inferred = model.infer(series);
                    let mut delta = inference_error(&series.target, &inferred);
                    if !delta.is_finite() || delta > DELTA_CEILING {
                        delta = DELTA_CEILING;
                    }
                    chunk.deltas.push(delta);
                    if let Some(c) = capture(task.probe, pos, engine, series, &inferred) {
                        chunk.captures.push(c);
                    }
                }
                let infer = t0.elapsed();
                note_stage1_time(
                    engine,
                    Stage1Time {
                        infer,
                        ..Default::default()
                    },
                );
                Done::Infer(chunk)
            }
        }
    };

    let work = || {
        let _stop = StopOnPanic(&shared);
        let mut pool = shared.lock();
        loop {
            if pool.stop {
                return;
            }
            if let Some((task, job)) = pool.claim() {
                drop(pool);
                let done = run(task, job);
                pool = shared.lock();
                pool.finish(task, done);
                shared.wake.notify_all();
            } else if pool.drained() {
                return;
            } else {
                pool = shared.wait(pool);
            }
        }
    };

    // The calling thread emits finished probes in order and admits the
    // next ones; an `Ok` return with probes left means a worker panicked.
    let mut emit = || -> Result<(), E> {
        loop {
            let mut pool = shared.lock();
            while !pool.stop
                && pool.next_emit < pool.end
                && pool.window.front().is_none_or(|r| r.left > 0)
            {
                pool = shared.wait(pool);
            }
            if pool.stop || pool.next_emit == pool.end {
                return Ok(());
            }
            let probe = pool.next_emit;
            let resident = pool.window.pop_front().expect("front probe finished");
            pool.next_emit += 1;
            drop(pool);
            if let Err(e) = on_probe(probe, resident.into_output()) {
                shared.stop();
                return Err(e);
            }
            shared.lock().admit();
            shared.wake.notify_all();
        }
    };

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        let result = {
            let _stop = StopOnPanic(&shared);
            emit()
        };
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_serial() {
        let serial = parallel_map(257, 1, |i| (i as u64).wrapping_mul(0x9e3779b9));
        let parallel = parallel_map(257, 8, |i| (i as u64).wrapping_mul(0x9e3779b9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_task_set() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn shard_ranges_partition_every_probe_count() {
        for n_probes in [0usize, 1, 5, 7, 16, 100] {
            for count in [1usize, 2, 3, 5, 8, 13] {
                let mut covered = vec![0u32; n_probes];
                let mut prev_end = 0;
                for index in 0..count {
                    let range = ShardSpec::new(index, count).probe_range(n_probes);
                    assert_eq!(range.start, prev_end, "shards must be contiguous");
                    prev_end = range.end;
                    for p in range {
                        covered[p] += 1;
                    }
                }
                assert_eq!(prev_end, n_probes);
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "n={n_probes} count={count}: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn shard_full_covers_everything() {
        assert!(ShardSpec::full().is_full());
        assert_eq!(ShardSpec::full().probe_range(9), 0..9);
    }

    #[test]
    fn shard_index_out_of_range_panics() {
        let result = std::panic::catch_unwind(|| ShardSpec::new(3, 3));
        assert!(result.is_err());
    }

    /// A comparable summary of one emitted probe: its index, the bits of
    /// its overall metrics and aggregates, and per engine the bits of its
    /// deltas and its captures.
    type Emitted = (
        usize,
        Vec<u64>,
        Vec<u64>,
        Vec<(Vec<u64>, Vec<CapturedSeries>)>,
    );

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn summarize(probe: usize, out: ProbeOutput) -> Emitted {
        let engines = out
            .engines
            .into_iter()
            .map(|e| (bits(&e.deltas), e.captures))
            .collect();
        (probe, bits(&out.overall), bits(&out.agg.concat()), engines)
    }

    const POOL_PROBES: usize = 11;

    /// Probes whose index is a multiple of 3 simulate series 100x longer
    /// than the others, so probes finish far out of order.
    fn series_len(probe: usize) -> usize {
        if probe.is_multiple_of(3) {
            400
        } else {
            4
        }
    }

    /// 3 training units, 1 validation unit and 21 key units, so each
    /// engine's inference spans three chunks.
    fn pool_grid() -> UnitGrid {
        UnitGrid {
            n_units: 25,
            train_units: vec![0, 1, 2],
            val_units: vec![3],
            key_units: (4..25).collect(),
        }
    }

    fn pool_engines() -> Vec<EngineSpec> {
        vec![
            EngineSpec::Lasso(perfbug_ml::LassoParams::default()),
            EngineSpec::Gbt(perfbug_ml::GbtParams {
                n_trees: 5,
                ..perfbug_ml::GbtParams::default()
            }),
        ]
    }

    /// One synthetic simulation: a series of `series_len(probe)` steps.
    fn synthetic_run(probe: usize, unit: usize) -> (RunSeries, f64) {
        let rows: Vec<Vec<f64>> = (0..series_len(probe))
            .map(|t| {
                let x = ((t * 7 + probe * 3 + unit) % 13) as f64;
                vec![x, (t % 5) as f64, unit as f64]
            })
            .collect();
        let target = rows
            .iter()
            .map(|r| 0.5 * r[0] - 0.1 * r[1] + 0.01 * r[2])
            .collect();
        let series = RunSeries {
            rows: perfbug_workloads::RowMatrix::from_rows(&rows),
            target,
            arch_features: vec![unit as f64 * 0.25],
        };
        (series, (probe * 100 + unit) as f64 / 7.0)
    }

    fn synthetic_features(probe: usize) -> FeatureSpec {
        FeatureSpec {
            selected: if probe.is_multiple_of(2) {
                vec![0, 1]
            } else {
                vec![0]
            },
            arch_features: true,
            window: 1,
        }
    }

    fn synthetic_capture(
        probe: usize,
        pos: usize,
        engine: &EngineSpec,
        series: &RunSeries,
        inferred: &[f64],
    ) -> Option<CapturedSeries> {
        (pos % 5 == probe % 5).then(|| CapturedSeries {
            probe_id: format!("p{probe}"),
            arch: format!("k{pos}"),
            bug: None,
            engine: engine.name(),
            simulated: series.target.clone(),
            inferred: inferred.to_vec(),
        })
    }

    /// One probe's pipeline computed directly, without the pool.
    fn serial_probe(probe: usize) -> Emitted {
        let grid = pool_grid();
        let runs: Vec<_> = (0..grid.n_units).map(|u| synthetic_run(probe, u)).collect();
        let pick = |units: &[usize]| units.iter().map(|&u| &runs[u].0).collect::<Vec<_>>();
        let overall: Vec<f64> = grid.key_units.iter().map(|&u| runs[u].1).collect();
        let engines = pool_engines()
            .iter()
            .map(|engine| {
                let (train, val) = (pick(&grid.train_units), pick(&grid.val_units));
                let model = ProbeModel::train(engine, synthetic_features(probe), &train, &val);
                let mut deltas = Vec::new();
                let mut captures = Vec::new();
                for (pos, &u) in grid.key_units.iter().enumerate() {
                    let series = &runs[u].0;
                    let inferred = model.infer(series);
                    deltas.push(inference_error(&series.target, &inferred));
                    captures.extend(synthetic_capture(probe, pos, engine, series, &inferred));
                }
                (bits(&deltas), captures)
            })
            .collect();
        let agg = aggregate(&grid, &runs).concat();
        (probe, bits(&overall), bits(&agg), engines)
    }

    /// Runs the pool over the synthetic pipeline. `simulate` panics on
    /// `panic_at` (probe, unit); every call of `make_trace` and
    /// `on_probe` goes through `on_trace` and `on_probe`.
    fn run_pool<E>(
        threads: usize,
        shard: ShardSpec,
        skip: usize,
        panic_at: Option<(usize, usize)>,
        on_probe: impl FnMut(usize, ProbeOutput) -> Result<(), E>,
        on_trace: impl Fn(usize) + Sync,
    ) -> Result<(), E> {
        collect_unit_grid_streaming(
            POOL_PROBES,
            threads,
            shard,
            skip,
            &pool_grid(),
            &pool_engines(),
            |probe| {
                on_trace(probe);
                probe
            },
            |&probe: &usize, unit| {
                assert!(
                    panic_at != Some((probe, unit)),
                    "simulation {probe}/{unit} failed"
                );
                synthetic_run(probe, unit)
            },
            |probe, _units| synthetic_features(probe),
            synthetic_capture,
            on_probe,
        )
    }

    fn emitted(threads: usize, shard: ShardSpec, skip: usize) -> Vec<Emitted> {
        let mut out = Vec::new();
        let result: Result<(), ()> = run_pool(
            threads,
            shard,
            skip,
            None,
            |probe, output| {
                out.push(summarize(probe, output));
                Ok(())
            },
            |_| {},
        );
        assert!(result.is_ok());
        out
    }

    #[test]
    fn pool_output_is_independent_of_threads_skip_and_shard() {
        let reference = emitted(1, ShardSpec::full(), 0);
        assert!(reference == (0..POOL_PROBES).map(serial_probe).collect::<Vec<_>>());
        assert!(reference.iter().all(|e| e.3[1].1.len() >= 4));
        for threads in [2, 3, 7] {
            assert!(
                emitted(threads, ShardSpec::full(), 0) == reference,
                "threads={threads}"
            );
            for skip in [1, 4, POOL_PROBES] {
                assert!(
                    emitted(threads, ShardSpec::full(), skip) == reference[skip..],
                    "threads={threads} skip={skip}"
                );
            }
            for count in [2, 3] {
                let mut joined = Vec::new();
                for index in 0..count {
                    let shard = ShardSpec::new(index, count);
                    let range = shard.probe_range(POOL_PROBES);
                    let part = emitted(threads, shard, 1);
                    assert!(part[..] == reference[range.start + 1..range.end]);
                    joined.extend(emitted(threads, shard, 0));
                }
                assert!(joined == reference, "threads={threads} shards={count}");
            }
        }
    }

    #[test]
    fn pool_never_holds_more_than_its_window() {
        for threads in [1, 2, 3, 7] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let result: Result<(), ()> = run_pool(
                threads,
                ShardSpec::full(),
                0,
                None,
                |_, _| {
                    live.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                },
                |_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                },
            );
            assert!(result.is_ok());
            assert_eq!(live.load(Ordering::SeqCst), 0);
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= threads.max(2), "threads={threads}: {peak} resident");
        }
    }

    #[test]
    fn pool_returns_the_first_on_probe_error() {
        for threads in [1, 2, 3] {
            let traced = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let result = run_pool(
                threads,
                ShardSpec::full(),
                0,
                None,
                |probe, _| {
                    seen.push(probe);
                    if probe == 3 {
                        Err(probe)
                    } else {
                        Ok(())
                    }
                },
                |_| {
                    traced.fetch_add(1, Ordering::SeqCst);
                },
            );
            assert_eq!(result, Err(3));
            assert_eq!(seen, [0, 1, 2, 3]);
            // Probes 4.. were admitted only while 3 was unemitted.
            let traced = traced.load(Ordering::SeqCst);
            assert!(traced <= 3 + threads.max(2), "threads={threads}: {traced}");
        }
    }

    #[test]
    fn pool_propagates_a_panicking_simulation() {
        for threads in [1, 2, 3, 7] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_pool(
                    threads,
                    ShardSpec::full(),
                    0,
                    Some((4, 9)),
                    |_, _| Ok::<(), ()>(()),
                    |_| {},
                )
            }));
            let payload = result.expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("simulation 4/9 failed"), "threads={threads}");
        }
    }

    #[test]
    fn pool_propagates_a_panicking_callback() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pool(
                2,
                ShardSpec::full(),
                0,
                None,
                |probe, _| -> Result<(), ()> {
                    assert!(probe != 1, "callback failed");
                    Ok(())
                },
                |_| {},
            )
        }));
        assert!(result.is_err());
    }
}
