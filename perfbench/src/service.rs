//! The service layer: `perfbug_core::serve::serve` on a loopback port,
//! backed by the bench crate's named specs, answering a closed loop of
//! clients from two stored tenants. It is measured in the traced run of
//! `mem-detect`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use perfbug_bench::specs::{resolve_spec, BenchBackend};
use perfbug_core::exec;
use perfbug_core::persist;
use perfbug_core::serve::{
    self, ExperimentBackend, Request, ServeOptions, ServeStore, SubmitRequest,
};

use crate::stats::{median, percentile, Checks, SplitMix64};
use crate::trace::Tracer;
use crate::Metrics;

/// The two tenants: a core corpus and a memory corpus.
const TENANTS: [&str; 2] = ["replay-demo", "mem-quick"];

/// One served cache hit.
pub struct Hit {
    /// Seconds from connect to `done`.
    pub latency: f64,
    /// Seconds from connect to the first event line.
    pub first_event: f64,
}

/// A running in-process server.
pub struct Server {
    addr: SocketAddr,
    waker: TcpListener,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(store: &Path) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let waker = listener.try_clone()?;
        let backend: Arc<dyn ExperimentBackend> = Arc::new(BenchBackend {
            exe: std::env::current_exe()?,
        });
        let store = ServeStore::new(store);
        let thread = std::thread::spawn(move || {
            serve::serve(listener, backend, store, ServeOptions::default())
        });
        Ok(Server {
            addr,
            waker,
            thread,
        })
    }

    /// Stops the accept loop and joins its thread: the listening socket
    /// is switched to non-blocking (the clone shares its file
    /// description) and one connection wakes the blocked `accept`, so
    /// the next `accept` fails and `serve` returns.
    pub fn stop(self) {
        if self.waker.set_nonblocking(true).is_ok() {
            drop(TcpStream::connect(self.addr));
            let _ = self.thread.join();
        }
    }
}

/// A set-up service: the server and each tenant's probe count.
pub struct Service {
    pub server: Server,
    store: std::path::PathBuf,
    probes: [u64; 2],
}

fn submit(spec: &str) -> Request {
    Request::Submit(SubmitRequest {
        spec: spec.to_string(),
        workers: 0,
        shards: 0,
        max_attempts: 3,
        timeout_secs: None,
        hosts: None,
    })
}

/// Simulation units per probe of a tenant spec.
fn units_per_probe(spec: &str) -> Option<u64> {
    match resolve_spec(spec).ok()? {
        perfbug_bench::specs::SpecConfig::Core(c) => Some(
            perfbug_core::experiment::simulation_units_per_probe(&c.partition, &c.catalog) as u64,
        ),
        perfbug_bench::specs::SpecConfig::Memory(c) => {
            Some(crate::detect::mem_units_per_probe(&c.catalog) as u64)
        }
    }
}

impl Service {
    /// Set-up: starts the server on a fresh store and stores both
    /// tenants through one cold submission each.
    pub fn set_up(store: &Path, checks: &mut Checks) -> Option<Service> {
        let _ = std::fs::remove_dir_all(store);
        let server = match Server::start(store) {
            Ok(server) => server,
            Err(e) => {
                checks.fail("server start", &e.to_string());
                return None;
            }
        };
        let addr = server.addr.to_string();
        let mut probes = [0u64; 2];
        for (i, spec) in TENANTS.iter().enumerate() {
            match serve::request(&addr, &submit(spec), |_| {}) {
                Ok(out) => {
                    let n = out.probes.unwrap_or(0);
                    let sims = out.simulations_run.unwrap_or(0);
                    let expected = units_per_probe(spec).map(|u| u * n);
                    checks.check("setup.cold_submit", out.status == "collected" && n > 0
                        && Some(sims) == expected, || {
                        format!("{spec}: status {}, {n} probes, {sims} simulations (expected {expected:?})", out.status)
                    });
                    probes[i] = n;
                }
                Err(e) => checks.fail("setup.cold_submit", &format!("{spec}: {e}")),
            }
        }
        Some(Service {
            server,
            store: store.to_path_buf(),
            probes,
        })
    }

    /// The closed loop: `clients` threads, each submitting its next
    /// request only after the previous one completed, drawing tenants
    /// from its own seeded stream, until `seconds` have passed. Every
    /// reply must be a cache hit that simulated nothing and carries the
    /// tenant's probe count.
    pub fn closed_loop(
        &self,
        seed: u64,
        clients: usize,
        seconds: f64,
        checks: &mut Checks,
    ) -> Vec<Hit> {
        let addr = self.server.addr.to_string();
        let sims0 = exec::simulations_run();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let per_client: Vec<(Vec<Hit>, Checks)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                        let mut checks = Checks::default();
                        let mut hits = Vec::new();
                        while Instant::now() < deadline {
                            let tenant = (rng.next_u64() >> 63) as usize;
                            let start = Instant::now();
                            let mut first = None;
                            let result = serve::request(addr, &submit(TENANTS[tenant]), |_| {
                                first.get_or_insert_with(|| start.elapsed().as_secs_f64());
                            });
                            let latency = start.elapsed().as_secs_f64();
                            match result {
                                Ok(out) => {
                                    let want = self.probes[tenant];
                                    if checks.check(
                                        "request.cache_hit",
                                        out.status == "cache-hit"
                                            && out.simulations_run == Some(0)
                                            && out.probes == Some(want),
                                        || {
                                            format!(
                                                "{}: {out:?}, expected {want} probes",
                                                TENANTS[tenant]
                                            )
                                        },
                                    ) {
                                        hits.push(Hit {
                                            latency,
                                            first_event: first.unwrap_or(latency),
                                        });
                                    }
                                }
                                Err(e) => checks.fail("request", &e),
                            }
                        }
                        (hits, checks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut hits = Vec::new();
        for (h, c) in per_client {
            hits.extend(h);
            checks.attempted += c.attempted;
            checks.failed += c.failed;
        }
        let sims = exec::simulations_run() - sims0;
        checks.check("serve.simulations_run", sims == 0, || {
            format!("{sims} simulations while serving hits")
        });
        hits
    }

    /// Path, kind and fingerprint of a tenant's stored corpus.
    fn tenant_file(
        &self,
        spec: &str,
    ) -> Option<(std::path::PathBuf, persist::ExperimentKind, u64)> {
        let resolved = resolve_spec(spec).ok()?;
        let (kind, fingerprint) = (resolved.kind(), resolved.fingerprint());
        let plan = ServeStore::new(&self.store).plan(spec, kind, fingerprint);
        Some((plan.full_path(), kind, fingerprint))
    }

    /// The traced measurement, after a closed loop that produced `hits`:
    /// times the layer the server runs per hit (`persist::load_or_assemble`
    /// on a tenant file, in the loop's tenant mix) and splits the hit
    /// latency into that load and the protocol around it.
    pub fn traced(
        &self,
        hits: &[Hit],
        seed: u64,
        tracer: &mut Tracer,
        checks: &mut Checks,
        m: &mut Metrics,
    ) {
        let sims0 = exec::simulations_run();
        let latencies: Vec<f64> = hits.iter().map(|h| h.latency).collect();
        let firsts: Vec<f64> = hits.iter().map(|h| h.first_event).collect();
        let mut rng = SplitMix64::new(seed);
        let files: Vec<_> = TENANTS.iter().map(|t| self.tenant_file(t)).collect();
        for _ in 0..latencies.len().clamp(100, 2000) {
            let tenant = (rng.next_u64() >> 63) as usize;
            let Some((path, kind, fp)) = &files[tenant] else {
                continue;
            };
            let loaded = tracer.span("serve.load", || persist::load_or_assemble(path, *kind, *fp));
            let probes = match loaded {
                Ok(Some((col, _))) => col.probes.len() as u64,
                _ => 0,
            };
            checks.check("traced.tenant_load", probes == self.probes[tenant], || {
                format!("{}: loaded {probes} probes", TENANTS[tenant])
            });
        }
        let sims = exec::simulations_run() - sims0;
        checks.check("traced.simulations_run", sims == 0, || {
            format!("{sims} simulations")
        });

        let ms = |s: f64| s * 1e3;
        let hit_p50 = ms(percentile(&latencies, 50.0));
        let load_ms = ms(median(&tracer.durations("serve.load")));
        m.set("serve.load_ms", load_ms);
        m.set("serve.protocol_ms", hit_p50 - load_ms);
        m.set("serve.first_event_ms", ms(median(&firsts)));
        m.set("serve.hit_p99_ms", ms(percentile(&latencies, 99.0)));
    }
}
