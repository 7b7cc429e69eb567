//! `perfbench`: the outside-in benchmark of the detector.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload core-detect --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Each run sets up its workload, measures
//! end-to-end metrics for `--seconds` seconds (`--trace 0`) or makes one
//! traced pass that yields the per-layer metrics (`--trace 1`), checks
//! every output, and prints a host record followed, as its last line, by
//! the result object. See README.md beside this file.

mod detect;
mod memory;
mod replay;
mod service;
mod stats;
mod trace;

#[global_allocator]
static ALLOCATOR: memory::Counting = memory::Counting;

use std::path::{Path, PathBuf};
use std::time::Instant;

use detect::{Detect, Experiment};
use service::Service;
use stats::{median, num, percentile, Checks, Spread};
use trace::Tracer;

/// End-to-end metrics: (name, unit), measured with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("pass_s", "s"),
    ("hits_per_s", "1/s"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics: (name, unit), from the traced run. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.probe_extract_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.traces", "count"),
    ("tracecache.read_s", "s"),
    ("tracecache.regenerated", "count"),
    ("tracecache.rejections", "count"),
    ("uarch.sim_s", "s"),
    ("uarch.runs", "count"),
    ("uarch.sim_cycles", "count"),
    ("uarch.ns_per_cycle", "ns"),
    ("uarch.minst_per_s", "Minst/s"),
    ("uarch.ipc", "inst/cycle"),
    ("memsim.sim_s", "s"),
    ("memsim.runs", "count"),
    ("memsim.us_per_run", "us"),
    ("memsim.minst_per_s", "Minst/s"),
    ("counter_select.s", "s"),
    ("counter_select.calls", "count"),
    ("stage1.train_s", "s"),
    ("stage1.infer_s", "s"),
    ("stage1.models", "count"),
    ("stage1.train_rows", "count"),
    ("stage2.eval_s", "s"),
    ("baseline.eval_s", "s"),
    ("exec.busy_s", "s"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.unattributed_s", "s"),
    ("exec.simulations_run", "count"),
    ("persist.write_s", "s"),
    ("persist.encode_s", "s"),
    ("persist.decode_s", "s"),
    ("persist.load_s", "s"),
    ("persist.bytes", "bytes"),
    ("serve.load_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.simulations_run", "count"),
    ("error_rate", "ratio"),
];

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;

/// A fixed, ordered set of named metrics: each has a value and the
/// samples within the run that its spread is reported from.
pub struct Metrics {
    entries: Vec<Entry>,
}

struct Entry {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metrics {
    fn of(table: &[(&'static str, &'static str)]) -> Metrics {
        Metrics {
            entries: table
                .iter()
                .map(|&(name, unit)| Entry {
                    name,
                    unit,
                    value: 0.0,
                    samples: Vec::new(),
                })
                .collect(),
        }
    }

    fn entry(&mut self, name: &str) -> &mut Entry {
        self.entries
            .iter_mut()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
    }

    /// Records a metric measured once.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_median(name, vec![value]);
    }

    /// Records a metric whose value is the median of `samples`.
    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        let entry = self.entry(name);
        entry.value = median(&samples);
        entry.samples = samples;
    }

    fn values_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    e.name,
                    num(e.value),
                    e.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn spread_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("\"{}\": {}", e.name, Spread::of(&e.samples).to_json()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    CoreDetect,
    MemDetect,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "core-detect" => Ok(Workload::CoreDetect),
            "mem-detect" => Ok(Workload::MemDetect),
            other => Err(format!(
                "unknown workload {other:?} (core-detect, mem-detect)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CoreDetect => "core-detect",
            Workload::MemDetect => "mem-detect",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    clients: usize,
}

fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    perfbug_bench::specs::flag_value(args, name)
}

fn parse_args(nproc: usize) -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |name: &str, default: Option<u64>| -> Result<u64, String> {
        match flag(&args, name)? {
            Some(raw) => perfbug_bench::specs::parse_num(&raw, name),
            None => default.ok_or_else(|| format!("{name} <n> is required")),
        }
    };
    let workload =
        Workload::parse(&flag(&args, "--workload")?.ok_or("--workload <name> is required")?)?;
    let parsed = Args {
        workload,
        seed: number("--seed", None)?,
        seconds: number("--seconds", None)? as f64,
        trace: match number("--trace", Some(0))? {
            0 => false,
            1 => true,
            n => return Err(format!("--trace must be 0 or 1, got {n}")),
        },
        threads: number("--threads", Some(nproc as u64))? as usize,
        clients: number("--clients", Some(nproc as u64))? as usize,
    };
    if parsed.threads == 0
        || parsed.threads > nproc
        || parsed.clients == 0
        || parsed.clients > nproc
    {
        return Err(format!(
            "threads ({}) and clients ({}) must be between 1 and nproc ({nproc})",
            parsed.threads, parsed.clients
        ));
    }
    Ok(parsed)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = parse_args(nproc)?;
    // Traces are built fresh unless a workload's set-up warms a store.
    std::env::remove_var(perfbug_core::tracecache::TRACE_DIR_ENV);
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("work-{}", std::process::id()));
    let out = root.join("out");
    for dir in [&work, &out] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let metrics = match (args.workload, args.trace) {
        (_, false) => detect_e2e(&args, &work, &mut checks),
        (_, true) => detect_traced(&args, &work, &mut tracer, &mut checks),
    };
    let _ = std::fs::remove_dir_all(&work);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let path = out.join(format!("spans-{tag}.json"));
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let host = host_record(&args, nproc, &metrics);
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.values_json()
    );
    let _ = std::fs::write(
        out.join(format!("{tag}.json")),
        format!("{host}\n{result}\n"),
    );
    println!("{host}");
    println!("{result}");
    Ok(())
}

fn make_experiment(args: &Args) -> Experiment {
    match args.workload {
        Workload::CoreDetect => Experiment::core(args.seed, args.threads),
        Workload::MemDetect => Experiment::memory(args.threads),
    }
}

/// Repeats the detect set-up and keeps the last one; returns it with the
/// set-up times.
fn detect_set_up(args: &Args, work: &Path, checks: &mut Checks) -> (Detect, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        last = Some(Detect::set_up(
            make_experiment(args),
            args.seed,
            work,
            checks,
        ));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn detect_e2e(args: &Args, work: &Path, checks: &mut Checks) -> Metrics {
    let (det, setups) = detect_set_up(args, work, checks);
    let t0 = Instant::now();
    let (mut passes, mut hit_groups) = (Vec::new(), Vec::new());
    while let Some(pass) = det.pass(checks) {
        passes.push(pass.seconds);
        hit_groups.push(det.replays(&pass.col, checks));
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut m = Metrics::of(&END_TO_END);
    m.set_median("pass_s", passes);
    hit_metrics(&mut m, &hit_groups);
    m.set_median("setup_s", setups);
    m.set("peak_heap_mb", memory::peak_heap_mb());
    m
}

fn detect_traced(args: &Args, work: &Path, tracer: &mut Tracer, checks: &mut Checks) -> Metrics {
    let det = Detect::set_up(make_experiment(args), args.seed, work, checks);
    let mut m = Metrics::of(&PER_LAYER);
    replay::traced(&det, args.threads, work, tracer, checks, &mut m);
    if args.workload == Workload::MemDetect {
        serve_layer(args, work, tracer, checks, &mut m);
    }
    m.set("error_rate", checks.error_rate());
    m
}

/// The service layer, measured in `mem-detect`'s traced run: the server
/// runs in-process on a loopback port, set-up stores two tenants through
/// one cold submission each, a closed loop of `clients` answers from
/// them for `--seconds`, and then each layer a hit runs is timed.
fn serve_layer(
    args: &Args,
    work: &Path,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    // The tenants build their traces fresh, as the service does by
    // default; no worker thread is alive here.
    std::env::remove_var(perfbug_core::tracecache::TRACE_DIR_ENV);
    let Some(svc) = Service::set_up(&work.join("store"), checks) else {
        return;
    };
    let sims0 = perfbug_core::exec::simulations_run();
    let hits = svc.closed_loop(args.seed, args.clients, args.seconds, checks);
    svc.traced(&hits, args.seed, tracer, checks, m);
    let sims = perfbug_core::exec::simulations_run() - sims0;
    m.set("serve.simulations_run", sims as f64);
    svc.server.stop();
}

/// Hit metrics from the replay latencies (seconds) of each pass: the
/// median over passes of each pass's rate, p50 and p90, so a burst of
/// host noise moves one pass rather than the result.
fn hit_metrics(m: &mut Metrics, groups: &[Vec<f64>]) {
    let rate = |g: &Vec<f64>| g.len() as f64 / g.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    m.set_median("hits_per_s", groups.iter().map(rate).collect());
    let served: Vec<&Vec<f64>> = groups.iter().filter(|g| !g.is_empty()).collect();
    for (name, p) in [("hit_p50_ms", 50.0), ("hit_p90_ms", 90.0)] {
        m.set_median(
            name,
            served.iter().map(|g| percentile(g, p) * 1e3).collect(),
        );
    }
}

/// Output of a command, trimmed, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the sources the benchmark builds (paths and contents, in
/// sorted order): identifies the code measured when no git metadata is
/// available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(PathBuf::from));
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", perfbug_core::persist::fnv1a(&bytes))
}

fn host_record(args: &Args, nproc: usize, metrics: &Metrics) -> String {
    let json_str = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"host\": {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"clients\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"source_digest\": \"{}\", \"vm_hwm_mb\": {}}}, \"spread\": {}}}",
        args.workload.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        args.threads,
        args.clients,
        json_str(&command_output("rustc", &["--version"])),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
        source_digest(),
        num(memory::vm_hwm_mb()),
        metrics.spread_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit)` of every metric BENCHMARK.json declares.
    fn declared() -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..text[start..].find(']').map(|e| start + e).expect("end")];
            for entry in body.split('{').skip(1) {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("value") + 1;
                    rest[open..open + rest[open..].find('"').expect("close")].to_string()
                };
                out.push((section.to_string(), field("name"), field("unit")));
            }
        }
        out
    }

    #[test]
    fn printed_metrics_match_the_declaration() {
        let ours: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| ("end_to_end", n, u))
            .chain(PER_LAYER.iter().map(|&(n, u)| ("per_layer", n, u)))
            .map(|(s, n, u)| (s.to_string(), n.to_string(), u.to_string()))
            .collect();
        assert_eq!(ours, declared());
    }
}
