//! Pinned simulator output: FNV-1a digests over two grids.
//!
//! - Every design of Table II × (no bug plus one variant of each of the
//!   16 bug families) on the first tiny-scale probes of two benchmarks.
//! - Default-scale probes, which fill the issue queue and re-order buffer
//!   far more often: the first probe of each `core-detect` benchmark of
//!   the outside-in benchmark on every design with no bug, plus every bug
//!   family on Skylake.
//!
//! The digest covers each run's total cycles, committed instructions, the
//! bits of every per-step IPC value and every counter-row value. Config
//! fingerprints, cached corpora and the benchmark's corpus digests all
//! assume the simulator is bit-stable, so any timing-model change that
//! moves a single cycle fails here first. A deliberate model change must
//! update both digests and say so in its change notes.

use perfbug_uarch::{presets, simulate, BugSpec, ProbeRun};
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};

/// Digest of the simulator's output over the grid below, recorded on the
/// per-cycle stepper before idle-cycle fast-forward was introduced.
const GOLDEN_DIGEST: u64 = 0xf589_b7dd_2bf5_5d7d;

/// Digest of the default-scale grid, recorded on the event-skipping
/// simulator that scanned the whole issue queue every cycle.
const DEFAULT_SCALE_DIGEST: u64 = 0x03fc_893b_3b1b_d1b4;

/// The `core-detect` benchmarks of the outside-in benchmark
/// (`perfbench/`).
const CORE_DETECT_BENCHMARKS: [&str; 6] = [
    "400.perlbench",
    "403.gcc",
    "433.milc",
    "436.cactusADM",
    "458.sjeng",
    "462.libquantum",
];

/// Probes taken from the front of each benchmark's SimPoint list.
const PROBES_PER_BENCHMARK: usize = 2;

/// Sample period, the default `ProbeScale` step.
const STEP_CYCLES: u64 = 1000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one run's totals, per-step IPC bits and counter-row bits into `h`.
fn fold_run(mut h: u64, run: &ProbeRun) -> u64 {
    h = fnv(h, run.total_cycles);
    h = fnv(h, run.total_insts);
    for &v in &run.ipc {
        h = fnv(h, v.to_bits());
    }
    for row in &run.counter_rows {
        for &v in row {
            h = fnv(h, v.to_bits());
        }
    }
    h
}

/// One variant of each bug family, in type-id order.
fn one_per_family() -> Vec<BugSpec> {
    use BugSpec::*;
    use Opcode::*;
    vec![
        SerializeOpcode { x: Sub },
        IssueOnlyIfOldest { x: Xor },
        IfOldestIssueOnlyX { x: Xor },
        DelayIfDependsOn {
            x: Add,
            y: Load,
            t: 12,
        },
        IqBelowDelay { n: 8, t: 6 },
        RobBelowDelay { n: 16, t: 6 },
        MispredictExtraDelay { t: 12 },
        StoresToLineDelay { n: 4, t: 12 },
        WritesToRegDelay {
            n: 16,
            t: 10,
            periodic: false,
        },
        L2ExtraLatency { t: 8 },
        FewerPhysRegs { n: 160 },
        LongBranchDelay { bytes: 4, t: 10 },
        OpcodeUsesRegDelay {
            x: Add,
            r: 0,
            t: 10,
        },
        BtbIndexMask { lost_bits: 8 },
        TlbPageWalkDelay { entries: 16, t: 30 },
        IssueReplayEveryN { n: 8, t: 6 },
    ]
}

#[test]
fn simulator_output_matches_golden_digest() {
    let families = one_per_family();
    let ids: Vec<u32> = families.iter().map(BugSpec::type_id).collect();
    assert_eq!(
        ids,
        (1..=16).collect::<Vec<u32>>(),
        "one variant per family"
    );
    let bugs: Vec<Option<BugSpec>> = std::iter::once(None)
        .chain(families.into_iter().map(Some))
        .collect();

    let scale = WorkloadScale::tiny();
    let mut h = FNV_OFFSET;
    let mut runs = 0usize;
    for name in ["458.sjeng", "462.libquantum"] {
        let spec = benchmark(name).expect("suite benchmark");
        let program = spec.program(&scale);
        for probe in spec.probes(&scale).iter().take(PROBES_PER_BENCHMARK) {
            let trace = probe.trace(&program);
            for cfg in presets::all() {
                for &bug in &bugs {
                    h = fold_run(h, &simulate(&cfg, bug, &trace, STEP_CYCLES));
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 20 * 17 * 2 * PROBES_PER_BENCHMARK, "grid size");
    assert_eq!(
        h, GOLDEN_DIGEST,
        "simulator output changed: digest {h:#018x} over {runs} runs"
    );
}

#[test]
fn default_scale_output_matches_golden_digest() {
    let scale = WorkloadScale::default();
    let skylake = presets::skylake();
    let mut h = FNV_OFFSET;
    let mut runs = 0usize;
    for name in CORE_DETECT_BENCHMARKS {
        let spec = benchmark(name).expect("suite benchmark");
        let program = spec.program(&scale);
        let probe = spec.probes(&scale).into_iter().next().expect("a probe");
        let trace = probe.trace(&program);
        for cfg in presets::all() {
            h = fold_run(h, &simulate(&cfg, None, &trace, STEP_CYCLES));
            runs += 1;
        }
        for bug in one_per_family() {
            h = fold_run(h, &simulate(&skylake, Some(bug), &trace, STEP_CYCLES));
            runs += 1;
        }
    }
    assert_eq!(runs, 6 * (20 + 16), "grid size");
    assert_eq!(
        h, DEFAULT_SCALE_DIGEST,
        "simulator output changed: digest {h:#018x} over {runs} runs"
    );
}
