//! In-process loopback suite for the distributed launcher: real TCP
//! connections to real [`serve_daemon`] accept loops on 127.0.0.1, with
//! scripted [`ShardAgent`]s standing in for worker processes. Each test
//! pins one failure-mode mapping of the protocol onto the supervision
//! state machine's vocabulary: connect refusal ⇒ spawn failure
//! (requeue), mid-stream hangup ⇒ wait failure (bounded retry),
//! fingerprint skew ⇒ rejection before any work, supervisor hangup ⇒
//! daemon-side child kill, heartbeats ⇒ resume accounting.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, ProbeScale};
use perfbug_core::orchestrate::remote::{
    serve_daemon, DaemonOptions, LaunchRequest, RemoteLauncher, ShardAgent,
};
use perfbug_core::orchestrate::{
    run_orchestrator, AttemptOutcome, CollectPlan, ExitKind, Fault, OrchestratorConfig,
    WorkerHandle,
};
use perfbug_core::persist::{
    self, collect_shard_or_resume, config_fingerprint, encode_collection, load_or_assemble,
    ExperimentKind,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn daemon_options() -> DaemonOptions {
    DaemonOptions {
        poll_interval: Duration::from_millis(5),
        heartbeat_interval: Duration::from_millis(25),
        handshake_timeout: Duration::from_secs(5),
    }
}

/// Starts a worker daemon on an ephemeral loopback port; the accept loop
/// runs on a leaked thread for the life of the test process.
fn spawn_daemon(agent: Arc<dyn ShardAgent>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let _ = serve_daemon(listener, agent, daemon_options());
    });
    addr
}

/// A loopback port with nothing listening: bound once to reserve a fresh
/// number, then dropped so connects are refused.
fn dead_endpoint() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    listener.local_addr().expect("local addr").to_string()
}

fn fast_orch(workers: usize, shards: usize, max_attempts: u32) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(workers, shards);
    config.max_attempts = max_attempts;
    config.poll_interval = Duration::from_millis(1);
    config.retry_delay = Duration::from_millis(1);
    config
}

fn accept_all_launcher(endpoints: Vec<String>) -> RemoteLauncher {
    let mut launcher = RemoteLauncher::with_verify(
        endpoints,
        "scripted",
        ExperimentKind::Core,
        0x5eed,
        "unused-cache-dir",
        None,
        Box::new(|_, _| Ok(())),
    );
    launcher.set_timeouts(Duration::from_secs(2), Duration::from_secs(5));
    launcher
}

// ---------------------------------------------------------------------
// Scripted agent
// ---------------------------------------------------------------------

/// What one scripted launch's worker does.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Exit successfully on the first poll.
    Succeed,
    /// `try_finish` errors immediately: the daemon can no longer observe
    /// the worker, kills it and hangs up without an exit frame.
    WaitError,
    /// Run (poll as "still running") for the given time, then hit the
    /// wait error.
    StallThenWaitError(u64),
    /// Run until killed.
    StallForever,
}

struct ScriptedHandle {
    script: Script,
    spawned: Instant,
    kills: Arc<AtomicUsize>,
}

impl WorkerHandle for ScriptedHandle {
    fn try_finish(&mut self) -> io::Result<Option<ExitKind>> {
        match self.script {
            Script::Succeed => Ok(Some(ExitKind::Success)),
            Script::WaitError => Err(io::Error::other("scripted wait failure")),
            Script::StallThenWaitError(ms) => {
                if self.spawned.elapsed() >= Duration::from_millis(ms) {
                    Err(io::Error::other("scripted wait failure"))
                } else {
                    Ok(None)
                }
            }
            Script::StallForever => Ok(None),
        }
    }

    fn kill(&mut self) {
        self.kills.fetch_add(1, Ordering::SeqCst);
    }
}

/// [`ShardAgent`] whose launches pop a script queue (empty queue means
/// "succeed"), recording every admitted request.
struct ScriptedAgent {
    scripts: Mutex<VecDeque<Script>>,
    launches: Mutex<Vec<LaunchRequest>>,
    kills: Arc<AtomicUsize>,
    /// Fingerprint this daemon insists on; `Some` enables admission.
    expected_fingerprint: Option<u64>,
    /// Durable probes reported on the accept frame and every heartbeat
    /// *after* the first call (accept itself sees 0, so resume knowledge
    /// can only arrive via heartbeats).
    heartbeat_durable: u64,
    durable_calls: AtomicU64,
}

impl ScriptedAgent {
    fn new(scripts: Vec<Script>) -> Self {
        ScriptedAgent {
            scripts: Mutex::new(scripts.into()),
            launches: Mutex::new(Vec::new()),
            kills: Arc::new(AtomicUsize::new(0)),
            expected_fingerprint: None,
            heartbeat_durable: 0,
            durable_calls: AtomicU64::new(0),
        }
    }

    fn launch_count(&self) -> usize {
        self.launches.lock().expect("launches").len()
    }
}

impl ShardAgent for ScriptedAgent {
    fn accept(&self, req: &LaunchRequest) -> Result<(), String> {
        if let Some(expected) = self.expected_fingerprint {
            if req.fingerprint != expected {
                return Err(format!(
                    "config fingerprint mismatch: supervisor sent {:016x}, \
                     this daemon resolves {:016x} (version skew)",
                    req.fingerprint, expected
                ));
            }
        }
        Ok(())
    }

    fn launch(&self, req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>> {
        self.launches.lock().expect("launches").push(req.clone());
        let script = self
            .scripts
            .lock()
            .expect("scripts")
            .pop_front()
            .unwrap_or(Script::Succeed);
        Ok(Box::new(ScriptedHandle {
            script,
            spawned: Instant::now(),
            kills: Arc::clone(&self.kills),
        }))
    }

    fn durable_probes(&self, _req: &LaunchRequest) -> Option<u64> {
        if self.durable_calls.fetch_add(1, Ordering::SeqCst) == 0 {
            Some(0)
        } else {
            Some(self.heartbeat_durable)
        }
    }
}

// ---------------------------------------------------------------------
// Failure-mode mappings
// ---------------------------------------------------------------------

#[test]
fn connect_refusal_is_a_requeued_spawn_failure_with_bounded_retries() {
    let mut launcher = accept_all_launcher(vec![dead_endpoint()]);
    let report = run_orchestrator(&fast_orch(1, 1, 2), &mut launcher);
    assert!(!report.success, "nothing listens, so the pass must fail");
    assert_eq!(report.excluded, vec![0]);
    assert_eq!(
        report.attempts.len(),
        2,
        "retries are bounded by the budget: {}",
        report.summary()
    );
    for a in &report.attempts {
        assert!(
            matches!(&a.outcome, AttemptOutcome::SpawnFailed { .. }),
            "a refused connect maps to spawn-failed, got {}",
            a.outcome
        );
    }
}

#[test]
fn a_dead_endpoint_fails_over_to_the_live_one_within_a_single_attempt() {
    let agent = Arc::new(ScriptedAgent::new(vec![]));
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![dead_endpoint(), live]);
    let report = run_orchestrator(&fast_orch(1, 1, 1), &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert_eq!(
        report.attempts.len(),
        1,
        "failover must not burn an attempt"
    );
    assert!(report.attempts[0].outcome.is_success());
    assert_eq!(agent.launch_count(), 1);
}

#[test]
fn mid_stream_disconnect_is_a_requeued_wait_failure_then_recovers() {
    let agent = Arc::new(ScriptedAgent::new(vec![Script::WaitError]));
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![live]);
    let report = run_orchestrator(&fast_orch(1, 1, 3), &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert_eq!(report.attempts.len(), 2, "{}", report.summary());
    assert!(
        matches!(
            &report.attempts[0].outcome,
            AttemptOutcome::WaitFailed { .. }
        ),
        "a daemon hangup mid-attempt maps to wait-failed, got {}",
        report.attempts[0].outcome
    );
    assert!(report.attempts[1].outcome.is_success());
    assert_eq!(agent.launch_count(), 2);
}

#[test]
fn fingerprint_skew_is_rejected_before_any_work_starts() {
    let mut agent = ScriptedAgent::new(vec![]);
    // The daemon's "correct" fingerprint — anything differing from the
    // launcher's 0x5eed.
    agent.expected_fingerprint = Some(0xd1ff);
    let agent = Arc::new(agent);
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    // The launcher advertises a different fingerprint than the daemon
    // resolves: admission must refuse, nothing may spawn.
    let mut launcher = accept_all_launcher(vec![live]);
    let report = run_orchestrator(&fast_orch(1, 1, 1), &mut launcher);
    assert!(!report.success);
    let why = match &report.attempts[0].outcome {
        AttemptOutcome::SpawnFailed { why } => why.clone(),
        other => panic!("rejection maps to spawn-failed, got {other}"),
    };
    assert!(why.contains("rejected"), "{why}");
    assert!(why.contains("fingerprint mismatch"), "{why}");
    assert_eq!(agent.launch_count(), 0, "no worker may start on skew");
}

#[test]
fn supervisor_fault_kill_hangs_up_and_the_daemon_kills_its_child() {
    let agent = Arc::new(ScriptedAgent::new(vec![Script::StallForever]));
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![live]);
    let mut config = fast_orch(1, 1, 2);
    config.faults = Fault::parse_list("kill:0").expect("fault spec");
    let report = run_orchestrator(&config, &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert!(
        report
            .attempts
            .iter()
            .any(|a| a.outcome == AttemptOutcome::FaultKilled),
        "{}",
        report.summary()
    );
    // The supervisor only shut its socket; the *daemon* must translate
    // that hangup into killing the worker. Its connection thread races
    // this assertion, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while agent.kills.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        agent.kills.load(Ordering::SeqCst),
        1,
        "the orphaned worker must be killed exactly once"
    );
    assert_eq!(agent.launch_count(), 2, "the shard retried after the kill");
}

#[test]
fn heartbeats_carry_durable_progress_into_resume_accounting() {
    let mut agent = ScriptedAgent::new(vec![Script::StallThenWaitError(120)]);
    // First durable_probes call backs the accept frame (0); later calls
    // back heartbeats (7). Only the heartbeat path can deliver the 7.
    agent.heartbeat_durable = 7;
    let agent = Arc::new(agent);
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![live]);
    let report = run_orchestrator(&fast_orch(1, 1, 3), &mut launcher);
    assert!(report.success, "{}", report.summary());
    let retry = report
        .attempts
        .iter()
        .find(|a| a.attempt == 1)
        .expect("the stalled first attempt forces a retry");
    assert_eq!(
        retry.resumed_probes,
        Some(7),
        "heartbeat-observed durable progress must reach the report"
    );
    let launches = agent.launches.lock().expect("launches");
    assert_eq!(launches.len(), 2);
    assert_eq!(
        launches[1].resume_offset, 7,
        "the retry's launch frame must carry the observed durable prefix"
    );
}

// ---------------------------------------------------------------------
// End-to-end: real shard collection through two daemons
// ---------------------------------------------------------------------

fn tiny_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 20,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![benchmark("458.sjeng").expect("suite")];
    config.max_probes = Some(4);
    config.threads = 2;
    config
}

fn full_collection() -> &'static Collection {
    static FULL: OnceLock<Collection> = OnceLock::new();
    FULL.get_or_init(|| collect(&tiny_config()))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbug-remote-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Agent running the real shard-collection path synchronously inside
/// `launch` — the in-process stand-in for `pborch worker-daemon`'s
/// re-invocation of the worker binary.
struct CollectAgent {
    plan: CollectPlan,
    config: CollectionConfig,
}

impl ShardAgent for CollectAgent {
    fn launch(&self, req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>> {
        let path = self.plan.shard_path(req.shard);
        collect_shard_or_resume(&path, &self.config, req.shard)
            .map_err(|e| io::Error::other(format!("shard collection: {e}")))?;
        Ok(Box::new(ScriptedHandle {
            script: Script::Succeed,
            spawned: Instant::now(),
            kills: Arc::new(AtomicUsize::new(0)),
        }))
    }

    fn shard_checksum(&self, req: &LaunchRequest) -> Option<u64> {
        let bytes = std::fs::read(self.plan.shard_path(req.shard)).ok()?;
        Some(persist::fnv1a(&bytes))
    }
}

#[test]
fn a_two_daemon_pass_assembles_the_bit_identical_corpus() {
    let dir = scratch("e2e");
    let config = tiny_config();
    let plan = CollectPlan {
        dir: dir.clone(),
        prefix: "remote-e2e".into(),
        kind: ExperimentKind::Core,
        fingerprint: config_fingerprint(&config),
    };
    let agent = Arc::new(CollectAgent {
        plan: plan.clone(),
        config,
    });
    let a = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let b = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = RemoteLauncher::for_plan(vec![a, b], &plan);
    launcher.set_timeouts(Duration::from_secs(2), Duration::from_secs(30));
    let report = run_orchestrator(&fast_orch(2, 3, 2), &mut launcher);
    assert!(report.success, "{}", report.summary());
    // Success implies every shard also passed `for_plan`'s verify — the
    // local decode *and* the cross-check against the daemon-reported
    // FNV-1a checksum.
    let (merged, _status) = load_or_assemble(&plan.full_path(), plan.kind, plan.fingerprint)
        .expect("assembly")
        .expect("complete shard set");
    assert!(
        merged == *full_collection()
            && std::fs::read(plan.full_path()).expect("assembled file")
                == encode_collection(full_collection(), plan.fingerprint),
        "a distributed pass must be bit-identical to the single-process one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
