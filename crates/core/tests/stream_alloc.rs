//! Peak-allocation proof that the streaming reader is O(chunk), not
//! O(corpus): decoding one probe through [`ProbeReader`] must allocate a
//! small fraction of what a full [`load_collection`] decode allocates.
//!
//! One test in its own binary on purpose: the `#[global_allocator]`
//! counting wrapper is process-global, and a sibling test allocating
//! concurrently would pollute the peak window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{Collection, EngineResult, ProbeMeta, RunKey};
use perfbug_core::persist::{load_collection, save_collection, ProbeReader};
use perfbug_uarch::{ArchSet, BugSpec};
use perfbug_workloads::Opcode;

/// [`System`] wrapper tracking live bytes and the high-water mark.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = self.live.fetch_add(new_size, Ordering::Relaxed) + new_size;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A corpus whose encoded size dwarfs any single probe chunk: 192 probes
/// with fat capture series, so O(chunk) and O(corpus) are far apart.
fn big_collection() -> Collection {
    let n_probes = 192;
    let catalog = BugCatalog::new(vec![BugSpec::SerializeOpcode { x: Opcode::FpMul }]);
    let keys = vec![
        RunKey {
            arch: "Skylake".into(),
            set: ArchSet::IV,
            bug: None,
        },
        RunKey {
            arch: "Skylake".into(),
            set: ArchSet::II,
            bug: Some(0),
        },
    ];
    let probes: Vec<ProbeMeta> = (0..n_probes)
        .map(|p| ProbeMeta {
            id: format!("bench#{p}"),
            benchmark: "bench".into(),
            weight: 1.0 / (p + 1) as f64,
        })
        .collect();
    Collection {
        overall_ipc: (0..n_probes).map(|p| vec![p as f64; keys.len()]).collect(),
        agg_features: (0..n_probes)
            .map(|p| vec![vec![p as f64; 8]; keys.len()])
            .collect(),
        captures: (0..n_probes)
            .map(|p| perfbug_core::experiment::CapturedSeries {
                probe_id: format!("bench#{p}"),
                arch: "Skylake".into(),
                bug: Some(0),
                engine: "GBT-0".into(),
                simulated: (0..256).map(|i| (p * i) as f64).collect(),
                inferred: (0..256).map(|i| (p + i) as f64).collect(),
            })
            .collect(),
        engines: vec![EngineResult {
            name: "GBT-0".into(),
            deltas: (0..n_probes).map(|p| vec![p as f64; keys.len()]).collect(),
        }],
        keys,
        probes,
        catalog,
    }
}

#[test]
fn one_probe_streaming_decode_allocates_o_chunk_not_o_corpus() {
    let dir = std::env::temp_dir().join(format!("perfbug-streamalloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("big.pbcol");
    let col = big_collection();
    save_collection(&path, &col, 0xa110c).expect("save");
    let file_size = std::fs::metadata(&path).expect("metadata").len() as usize;
    drop(col);

    // Full decode: the whole corpus is materialised, so the peak is at
    // least the file size (bytes buffer alone).
    ALLOC.reset_peak();
    let full = load_collection(&path, 0xa110c).expect("load");
    let full_peak = ALLOC.peak();
    drop(full);

    // Streaming one-probe decode: open reads header + footer + meta, and
    // read_probe touches exactly one chunk.
    ALLOC.reset_peak();
    let mut reader = ProbeReader::open(&path, Some(0xa110c)).expect("open");
    let rec = reader.read_probe(100).expect("read probe");
    let stream_peak = ALLOC.peak();
    assert_eq!(rec.meta.id, "bench#100");
    drop(reader);

    assert!(
        full_peak >= file_size,
        "full decode peak {full_peak} is below the file size {file_size} — \
         the counting allocator is not seeing the decode"
    );
    assert!(
        stream_peak < full_peak / 8,
        "streaming peak {stream_peak} is not well below the full-decode \
         peak {full_peak} (file is {file_size} bytes)"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
