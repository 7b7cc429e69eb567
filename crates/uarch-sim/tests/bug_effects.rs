//! Per-type effect tests: every one of the fourteen §IV-C bug types must
//! (a) leave the committed instruction stream intact (timing-only defect)
//! and (b) cost cycles on a workload engineered to trigger it. Extension
//! families 15 (data TLB page walk) and 16 (issue replay) have their
//! effect tests next to the pipeline, in `src/sim.rs`.

use perfbug_uarch::{presets, simulate, BugSpec, MicroarchConfig, ProbeRun};
use perfbug_workloads::{Inst, Opcode, NO_REG};

/// Builds a trace that alternates a configurable opcode with dependent
/// filler so every bug type has targets.
fn mixed_trace(hot: Opcode, n: usize) -> Vec<Inst> {
    let mut trace = Vec::with_capacity(n);
    let mut addr = 0x4000_0000u32;
    let mut toggle = 0u32;
    for i in 0..n {
        let pc = 0x1000 + (i as u32 % 512) * 4;
        let inst = match i % 8 {
            0 => Inst {
                pc,
                mem_addr: 0,
                target: 0,
                opcode: hot,
                size: 3,
                src1: 9, // depends on the previous load: not instantly ready
                src2: 2,
                dst: 3,
                taken: false,
            },
            1 | 5 => Inst {
                pc,
                mem_addr: {
                    addr = 0x4000_0000 + ((addr - 0x4000_0000) + 64) % (1 << 16);
                    addr
                },
                target: 0,
                opcode: Opcode::Load,
                size: 4,
                src1: 3,
                src2: NO_REG,
                dst: 9,
                taken: false,
            },
            2 => Inst {
                pc,
                mem_addr: 0x5000_0000 + (toggle % 4) * 8, // few hot lines
                target: 0,
                opcode: Opcode::Store,
                size: 4,
                src1: 3,
                src2: 4,
                dst: NO_REG,
                taken: false,
            },
            3 => {
                toggle = toggle.wrapping_mul(1664525).wrapping_add(1013904223);
                // Mostly steady per-pc directions with occasional noise:
                // learnable by a healthy predictor, ruined by aliasing.
                let steady = (pc >> 5) & 1 == 0;
                let noisy = toggle & 0xF000 == 0; // ~6% flips
                Inst {
                    pc,
                    mem_addr: 0,
                    target: pc + 32,
                    opcode: Opcode::Branch,
                    size: 7, // long encoding for bug 12
                    src1: 3,
                    src2: NO_REG,
                    dst: NO_REG,
                    taken: steady ^ noisy,
                }
            }
            4 => Inst {
                pc,
                mem_addr: 0,
                target: 0,
                opcode: Opcode::Mul,
                size: 4,
                src1: 4,
                src2: 5,
                dst: 6,
                taken: false,
            },
            _ => Inst {
                pc,
                mem_addr: 0,
                target: 0,
                opcode: Opcode::Add,
                size: 3,
                src1: (3 + (i % 4)) as u8,
                src2: 6,
                dst: (7 + (i % 7)) as u8,
                taken: false,
            },
        };
        trace.push(inst);
    }
    trace
}

fn run(cfg: &MicroarchConfig, bug: Option<BugSpec>, trace: &[Inst]) -> ProbeRun {
    simulate(cfg, bug, trace, 500)
}

/// Asserts the bug costs cycles (or at least never gains) and commits the
/// same instruction count.
fn assert_bug_costs(bug: BugSpec, hot: Opcode, strictly: bool) {
    let trace = mixed_trace(hot, 12_000);
    let cfg = presets::skylake();
    let healthy = run(&cfg, None, &trace);
    let buggy = run(&cfg, Some(bug), &trace);
    assert_eq!(
        healthy.total_insts, buggy.total_insts,
        "{bug:?} altered the stream"
    );
    if strictly {
        assert!(
            buggy.total_cycles > healthy.total_cycles,
            "{bug:?} should cost cycles ({} !> {})",
            buggy.total_cycles,
            healthy.total_cycles
        );
    } else {
        assert!(
            buggy.total_cycles >= healthy.total_cycles,
            "{bug:?} must never gain cycles"
        );
    }
}

#[test]
fn bug01_serialize() {
    assert_bug_costs(
        BugSpec::SerializeOpcode { x: Opcode::Xor },
        Opcode::Xor,
        true,
    );
}

#[test]
fn bug02_issue_only_if_oldest() {
    assert_bug_costs(
        BugSpec::IssueOnlyIfOldest { x: Opcode::Xor },
        Opcode::Xor,
        true,
    );
}

#[test]
fn bug03_if_oldest_issue_only_x() {
    assert_bug_costs(
        BugSpec::IfOldestIssueOnlyX { x: Opcode::Xor },
        Opcode::Xor,
        true,
    );
}

#[test]
fn bug04_delay_if_depends_on() {
    // The hot instruction consumes load results (src1 = 9 = load dst);
    // making it an Add targets the (Add depends-on Load) rule.
    assert_bug_costs(
        BugSpec::DelayIfDependsOn {
            x: Opcode::Add,
            y: Opcode::Load,
            t: 20,
        },
        Opcode::Add,
        true,
    );
}

#[test]
fn bug05_iq_pressure_delay() {
    assert_bug_costs(BugSpec::IqBelowDelay { n: 60, t: 10 }, Opcode::Xor, true);
}

#[test]
fn bug06_rob_pressure_delay() {
    assert_bug_costs(BugSpec::RobBelowDelay { n: 250, t: 10 }, Opcode::Xor, true);
}

#[test]
fn bug07_mispredict_extra_penalty() {
    assert_bug_costs(BugSpec::MispredictExtraDelay { t: 25 }, Opcode::Xor, true);
}

#[test]
fn bug08_stores_to_line_delay() {
    // The trace hammers four hot store lines; evaluate on a small-queue
    // design (K8) where the delayed stores back-pressure the window.
    let trace = mixed_trace(Opcode::Xor, 12_000);
    let cfg = presets::k8();
    let healthy = run(&cfg, None, &trace);
    let buggy = run(
        &cfg,
        Some(BugSpec::StoresToLineDelay { n: 2, t: 60 }),
        &trace,
    );
    assert!(
        buggy.total_cycles > healthy.total_cycles,
        "store-gathering bug must cost cycles ({} !> {})",
        buggy.total_cycles,
        healthy.total_cycles
    );
}

#[test]
fn bug09_writes_to_reg_delay() {
    assert_bug_costs(
        BugSpec::WritesToRegDelay {
            n: 4,
            t: 12,
            periodic: false,
        },
        Opcode::Xor,
        true,
    );
    // The periodic variant fires less often but still never helps.
    assert_bug_costs(
        BugSpec::WritesToRegDelay {
            n: 8,
            t: 12,
            periodic: true,
        },
        Opcode::Xor,
        false,
    );
}

#[test]
fn bug10_l2_extra_latency() {
    // The 64 KiB load stream misses L1 (32 KiB) but lives in L2 after the
    // first pass, so taxing L2 hits must cost cycles.
    assert_bug_costs(BugSpec::L2ExtraLatency { t: 30 }, Opcode::Xor, true);
}

#[test]
fn bug11_fewer_phys_regs() {
    assert_bug_costs(BugSpec::FewerPhysRegs { n: 280 }, Opcode::Xor, true);
}

#[test]
fn bug12_long_branch_delay() {
    // Trace branches use 7-byte encodings.
    assert_bug_costs(
        BugSpec::LongBranchDelay { bytes: 5, t: 15 },
        Opcode::Xor,
        true,
    );
}

#[test]
fn bug13_opcode_uses_reg_delay() {
    // Hot Xor reads architectural registers 9 and 2.
    assert_bug_costs(
        BugSpec::OpcodeUsesRegDelay {
            x: Opcode::Xor,
            r: 2,
            t: 25,
        },
        Opcode::Xor,
        true,
    );
}

#[test]
fn bug14_predictor_index_mask() {
    assert_bug_costs(BugSpec::BtbIndexMask { lost_bits: 12 }, Opcode::Xor, true);
}

#[test]
fn bugs_affect_counters_not_composition() {
    // A timing bug must not change the committed opcode mix: branch and
    // load counts are identical between healthy and buggy runs.
    let trace = mixed_trace(Opcode::Xor, 8_000);
    let cfg = presets::skylake();
    let names = perfbug_uarch::counter_names();
    let col = |n: &str| names.iter().position(|x| *x == n).expect("counter");
    let healthy = run(&cfg, None, &trace);
    let buggy = run(
        &cfg,
        Some(BugSpec::SerializeOpcode { x: Opcode::Xor }),
        &trace,
    );
    let total = |r: &ProbeRun, c: usize| r.counter_rows.iter().map(|row| row[c]).sum::<f64>();
    // Totals over full runs (sampling may drop a partial step; compare
    // with tolerance of one step's worth).
    let h_loads = total(&healthy, col("loads"));
    let b_loads = total(&buggy, col("loads"));
    assert!(
        (h_loads - b_loads).abs() <= 400.0,
        "load counts diverged: {h_loads} vs {b_loads}"
    );
}

#[test]
fn severity_scales_with_parameter() {
    // Raising T must not reduce the cost (monotone severity knob).
    let trace = mixed_trace(Opcode::Xor, 10_000);
    let cfg = presets::skylake();
    let mut last = run(&cfg, None, &trace).total_cycles;
    for t in [5u32, 20, 60] {
        let cycles = run(&cfg, Some(BugSpec::MispredictExtraDelay { t }), &trace).total_cycles;
        assert!(cycles >= last, "t={t} should cost at least as much");
        last = cycles;
    }
}
