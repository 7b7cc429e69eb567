//! Persistent, fingerprinted workload-trace cache (the PBTR format).
//!
//! The collection passes of both experiments regenerate every probe's
//! instruction trace from its workload program on every pass, even though
//! the trace is *invariant* across designs and across every injected bug
//! in the current catalogues — performance bugs are timing-only (see
//! `perfbug_workloads::isa`), so the same trace is replayed everywhere.
//! This module caches those traces on disk so repeated collections (shard
//! retries, fuzz evaluations, figure regenerations) pay the trace cost
//! once per benchmark.
//!
//! ## The `.pbtr` file
//!
//! One file per (benchmark, workload scale), holding the traces of *all*
//! of that benchmark's probes at that scale, so every collection —
//! whatever its catalogue, engine roster or `max_probes` cap — shares the
//! same trace files. The layout reuses the PBCL chunk discipline from
//! [`crate::persist`] (`docs/FORMAT.md` §8): a fixed 28-byte header, one
//! meta chunk, exactly one chunk per probe (random access with O(chunk)
//! memory via [`TraceReader`], the trace sibling of
//! [`crate::persist::ProbeReader`]), a footer chunk index, and a 16-byte
//! trailer sealing the whole file with a streaming FNV-1a checksum.
//! Writes are atomic (unique sibling temp file + rename), and every read
//! path validates in the same order as PBCL: length, magic, version,
//! whole-file checksum, fingerprint, footer, chunk table, then per-chunk
//! checksum and exact payload decode.
//!
//! ## Keying and staleness
//!
//! Files are keyed by benchmark name plus a fingerprint
//! ([`trace_fingerprint`]) over the benchmark spec, the workload scale,
//! the [`TRACE_REVISION`] and the `Inst` record layout version — anything
//! that changes the generated trace changes the fingerprint, so a stale
//! file is *rejected* (and rebuilt), never silently replayed. A reader
//! additionally cross-checks the requesting probe's identity (benchmark,
//! interval, interval length, SimPoint weight) against the stored
//! per-probe metadata: a fingerprint collision still cannot serve a wrong
//! trace.
//!
//! ## Gating
//!
//! The cache is consulted only when the `PERFBUG_TRACE_DIR` environment
//! variable points at a directory ([`TraceStore::from_env`]) *and* every
//! bug in the pass's catalogue is trace-invariant
//! (`BugSpec::perturbs_trace` / `MemBugSpec::perturbs_trace` — see
//! [`crate::bugs`]). Any failure (missing file, corruption, truncation,
//! stale fingerprint, metadata mismatch) falls back to regenerating the
//! trace from the program, so a damaged cache can cost time but never
//! correctness. Regenerations are counted process-wide
//! ([`crate::exec::traces_regenerated`]); a warm pass performs zero.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use perfbug_workloads::wire::{decode_inst, encode_inst, INST_WIRE_LEN, INST_WIRE_VERSION};
use perfbug_workloads::{BenchmarkSpec, Inst, Probe, Program, WorkloadScale};

use crate::exec::note_trace_regenerated;
use crate::persist::{
    build_chunk, fnv1a, fnv1a_update, parse_chunk, ChunkEntry, Dec, Enc, PersistError, CHUNK_META,
    CHUNK_OVERHEAD, CHUNK_PROBES, FNV_BASIS, TRAILER_LEN,
};

/// File extension of trace-cache files.
pub const TRACE_FILE_EXTENSION: &str = "pbtr";

/// Environment variable gating the trace cache: when set (and non-empty),
/// collection passes whose catalogue is trace-invariant consult the store
/// rooted at this directory before calling `Probe::trace`.
pub const TRACE_DIR_ENV: &str = "PERFBUG_TRACE_DIR";

/// Magic bytes opening every trace-cache file.
const TRACE_MAGIC: [u8; 4] = *b"PBTR";

/// PBTR container format version (this spec: header/chunk/footer layout).
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Trace *content* revision: bump when trace generation semantics change
/// (program synthesis, probe extraction) without a container change. It
/// is folded into [`trace_fingerprint`] and additionally stored in the
/// header so `pbcol prune` can evict old-revision files without knowing
/// any configuration.
pub const TRACE_REVISION: u32 = 1;

/// Bytes of the fixed PBTR header:
/// `magic [u8;4] | format_version u32 | trace_revision u32 |
/// fingerprint u64 | n_probes u64`.
pub(crate) const TRACE_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8;

// --------------------------------------------------------------------------
// Counters
// --------------------------------------------------------------------------

/// Process-wide count of trace-cache rejections: `.pbtr` files (or single
/// probe reads) that failed validation and fell back to regeneration.
static TRACE_REJECTIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of trace-cache rejections in this process so far:
/// corrupt, truncated or stale-fingerprint files (and failed per-probe
/// reads) that were discarded in favour of regenerating the trace.
pub fn trace_cache_rejections() -> u64 {
    TRACE_REJECTIONS.load(Ordering::Relaxed)
}

fn note_rejection() {
    TRACE_REJECTIONS.fetch_add(1, Ordering::Relaxed);
}

// --------------------------------------------------------------------------
// Identity and file naming
// --------------------------------------------------------------------------

/// The fingerprint of a (benchmark, workload scale) trace file: FNV-1a
/// over a canonical rendering of everything the generated traces depend
/// on. As with the collection fingerprints in [`crate::persist`], the
/// value is opaque — it is compared, never parsed.
pub fn trace_fingerprint(bench: &BenchmarkSpec, scale: &WorkloadScale) -> u64 {
    let canon = format!(
        "trace/v{TRACE_REVISION}|inst-wire/v{INST_WIRE_VERSION}x{INST_WIRE_LEN}|\
         bench={bench:?}|scale={scale:?}"
    );
    fnv1a(canon.as_bytes())
}

/// The canonical file name of a trace file:
/// `<benchmark>-trace-<fingerprint:016x>.pbtr`.
pub fn trace_file_name(benchmark: &str, fingerprint: u64) -> String {
    format!("{benchmark}-trace-{fingerprint:016x}.{TRACE_FILE_EXTENSION}")
}

/// Parses a [`trace_file_name`] back into (benchmark, fingerprint).
/// Right-to-left, so benchmark names may themselves contain `-trace-`.
pub fn parse_trace_file_name(name: &str) -> Option<(String, u64)> {
    let stem = name.strip_suffix(&format!(".{TRACE_FILE_EXTENSION}"))?;
    let (benchmark, fp_hex) = stem.rsplit_once("-trace-")?;
    if benchmark.is_empty()
        || fp_hex.len() != 16
        || !fp_hex
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
    {
        return None;
    }
    let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
    Some((benchmark.to_string(), fingerprint))
}

/// Whether `name` follows the trace temp-file grammar
/// (`<target>.pbtr.<pid>-<seq>.tmp`) used by the atomic writer.
pub fn is_trace_temp_file_name(name: &str) -> bool {
    name.ends_with(".tmp") && name.contains(&format!(".{TRACE_FILE_EXTENSION}."))
}

/// A sibling temp path unique per process and call, for atomic
/// write-then-rename publication ([`is_trace_temp_file_name`] grammar).
fn trace_temp_sibling(path: &Path) -> PathBuf {
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!(
        "{TRACE_FILE_EXTENSION}.{}-{seq}.tmp",
        std::process::id()
    ))
}

/// Saves encoded trace bytes to `path` atomically (sibling temp + rename).
fn save_trace_bytes(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = trace_temp_sibling(path);
    fs::write(&tmp, bytes)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

// --------------------------------------------------------------------------
// Header / meta / payload codec
// --------------------------------------------------------------------------

/// The decoded fixed header of a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Trace content revision the file was generated under.
    pub trace_revision: u32,
    /// Fingerprint of the (benchmark, scale) the file caches.
    pub fingerprint: u64,
    /// Number of probe chunks (= probes of the benchmark at this scale).
    pub n_probes: u64,
}

fn enc_trace_header(header: &TraceHeader) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.buf.extend_from_slice(&TRACE_MAGIC);
    enc.u32(TRACE_FORMAT_VERSION);
    enc.u32(header.trace_revision);
    enc.u64(header.fingerprint);
    enc.u64(header.n_probes);
    enc.buf
}

/// Decodes and validates the fixed header at the front of `bytes`
/// (length, magic and format version — the cheap, config-free checks, so
/// tooling can classify a file without any configuration).
pub fn read_trace_header(bytes: &[u8]) -> Result<TraceHeader, PersistError> {
    let mut dec = Dec::new(bytes);
    let magic = dec.take(4)?;
    if magic != TRACE_MAGIC {
        return Err(PersistError::Corrupt("bad magic (not a PBTR file)".into()));
    }
    let version = dec.u32()?;
    if version != TRACE_FORMAT_VERSION {
        return Err(PersistError::Version {
            found: version,
            expected: TRACE_FORMAT_VERSION,
        });
    }
    Ok(TraceHeader {
        trace_revision: dec.u32()?,
        fingerprint: dec.u64()?,
        n_probes: dec.u64()?,
    })
}

/// Stored per-probe identity, cross-checked against the requesting
/// [`Probe`] before a cached trace is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceProbeMeta {
    /// The probe's interval index within the profiled window.
    pub interval: u64,
    /// The probe's SimPoint weight, as raw `f64` bits (exact compare).
    pub weight_bits: u64,
}

/// The decoded meta chunk: the probe-independent identity of a trace
/// file, written once at the front so a reader knows the probe roster
/// before any trace is decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark name the traces belong to.
    pub benchmark: String,
    /// Instructions per probe interval (the workload scale).
    pub interval_len: u64,
    /// Per-probe identity, indexed by SimPoint ordinal.
    pub probes: Vec<TraceProbeMeta>,
}

fn enc_trace_meta(meta: &TraceMeta) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.str(&meta.benchmark);
    enc.u64(meta.interval_len);
    enc.usize(meta.probes.len());
    for p in &meta.probes {
        enc.u64(p.interval);
        enc.u64(p.weight_bits);
    }
    enc.buf
}

fn dec_trace_meta(payload: &[u8]) -> Result<TraceMeta, PersistError> {
    let mut dec = Dec::new(payload);
    let benchmark = dec.str()?;
    let interval_len = dec.u64()?;
    let n = dec.len()?;
    let mut probes = Vec::with_capacity(n);
    for _ in 0..n {
        probes.push(TraceProbeMeta {
            interval: dec.u64()?,
            weight_bits: dec.u64()?,
        });
    }
    if dec.pos != payload.len() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after trace meta",
            payload.len() - dec.pos
        )));
    }
    Ok(TraceMeta {
        benchmark,
        interval_len,
        probes,
    })
}

fn enc_trace_payload(insts: &[Inst]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.usize(insts.len());
    enc.buf.reserve(insts.len() * INST_WIRE_LEN);
    for inst in insts {
        encode_inst(inst, &mut enc.buf);
    }
    enc.buf
}

fn dec_trace_payload(payload: &[u8]) -> Result<Vec<Inst>, PersistError> {
    let mut dec = Dec::new(payload);
    let n = dec.usize()?;
    let want = n
        .checked_mul(INST_WIRE_LEN)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| PersistError::Corrupt(format!("inst count {n} overflows")))?;
    if want != payload.len() {
        return Err(PersistError::Corrupt(format!(
            "trace payload is {} bytes but {n} records need {want}",
            payload.len()
        )));
    }
    let mut insts = Vec::with_capacity(n);
    for _ in 0..n {
        let rec = dec.take(INST_WIRE_LEN)?;
        insts.push(
            decode_inst(rec).map_err(|e| PersistError::Corrupt(format!("inst record: {e}")))?,
        );
    }
    Ok(insts)
}

fn enc_trace_footer(chunks: &[ChunkEntry]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.usize(chunks.len());
    for c in chunks {
        enc.u64(c.offset);
        enc.u64(c.len);
        enc.u8(c.kind);
        enc.u64(c.first_probe);
        enc.u32(c.n_probes);
        enc.u64(c.checksum);
    }
    enc.buf
}

fn dec_trace_footer(bytes: &[u8]) -> Result<Vec<ChunkEntry>, PersistError> {
    let mut dec = Dec::new(bytes);
    let n_chunks = dec.usize()?;
    if n_chunks > bytes.len() / 37 {
        // 37 = bytes per chunk entry; bounds the allocation below.
        return Err(PersistError::Corrupt(format!(
            "footer chunk count {n_chunks} exceeds footer size"
        )));
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        chunks.push(ChunkEntry {
            offset: dec.u64()?,
            len: dec.u64()?,
            kind: dec.u8()?,
            first_probe: dec.u64()?,
            n_probes: dec.u32()?,
            checksum: dec.u64()?,
        });
    }
    if dec.pos != bytes.len() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after trace footer",
            bytes.len() - dec.pos
        )));
    }
    Ok(chunks)
}

/// Validates a PBTR chunk table against the header: exactly one meta
/// chunk first (at the fixed header boundary), contiguous extents ending
/// at the footer, and one single-probe chunk per SimPoint ordinal
/// covering `0..n_probes` in order.
fn validate_trace_chunk_table(
    chunks: &[ChunkEntry],
    footer_offset: u64,
    header: &TraceHeader,
) -> Result<(), PersistError> {
    let corrupt = |why: String| PersistError::Corrupt(why);
    let first = chunks
        .first()
        .ok_or_else(|| corrupt("empty chunk table".into()))?;
    if !first.is_meta()
        || first.offset != TRACE_HEADER_LEN as u64
        || first.first_probe != 0
        || first.n_probes != 0
    {
        return Err(corrupt(format!(
            "first chunk must be the meta chunk at byte {TRACE_HEADER_LEN}"
        )));
    }
    let mut end = first.offset;
    let mut next_probe = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        if c.offset != end {
            return Err(corrupt(format!(
                "chunk {i} at byte {} is not contiguous with the previous chunk (ends {end})",
                c.offset
            )));
        }
        if c.len < CHUNK_OVERHEAD as u64 {
            return Err(corrupt(format!("chunk {i} length {} is too short", c.len)));
        }
        end = c
            .offset
            .checked_add(c.len)
            .ok_or_else(|| corrupt(format!("chunk {i} extent overflows")))?;
        if i > 0 {
            if c.kind != CHUNK_PROBES || c.n_probes != 1 {
                return Err(corrupt(format!(
                    "chunk {i} is not a single-probe chunk (kind {}, {} probes)",
                    c.kind, c.n_probes
                )));
            }
            if c.first_probe != next_probe {
                return Err(corrupt(format!(
                    "chunk {i} covers probe {} (expected {next_probe})",
                    c.first_probe
                )));
            }
            next_probe = c.probe_end();
        }
    }
    if end != footer_offset {
        return Err(corrupt(format!(
            "chunks end at byte {end} but the footer starts at {footer_offset}"
        )));
    }
    if next_probe != header.n_probes {
        return Err(corrupt(format!(
            "probe chunks cover 0..{next_probe} but the header promises 0..{}",
            header.n_probes
        )));
    }
    Ok(())
}

/// Encodes a complete trace file: header, meta chunk, one chunk per
/// probe, footer chunk index and the sealing trailer. `meta.probes` and
/// `traces` must be parallel (indexed by SimPoint ordinal).
pub fn encode_trace_file(
    fingerprint: u64,
    meta: &TraceMeta,
    traces: &[Vec<Inst>],
) -> Result<Vec<u8>, PersistError> {
    if meta.probes.len() != traces.len() {
        return Err(PersistError::Corrupt(format!(
            "meta lists {} probes but {} traces were supplied",
            meta.probes.len(),
            traces.len()
        )));
    }
    let header = TraceHeader {
        trace_revision: TRACE_REVISION,
        fingerprint,
        n_probes: traces.len() as u64,
    };
    let mut buf = enc_trace_header(&header);
    let mut entries = Vec::with_capacity(1 + traces.len());
    let mut append = |buf: &mut Vec<u8>, kind, first_probe, n_probes, payload: &[u8]| {
        let (chunk, checksum) = build_chunk(kind, first_probe, n_probes, payload);
        entries.push(ChunkEntry {
            offset: buf.len() as u64,
            len: chunk.len() as u64,
            kind,
            first_probe,
            n_probes,
            checksum,
        });
        buf.extend_from_slice(&chunk);
    };
    append(&mut buf, CHUNK_META, 0, 0, &enc_trace_meta(meta));
    for (ordinal, trace) in traces.iter().enumerate() {
        append(
            &mut buf,
            CHUNK_PROBES,
            ordinal as u64,
            1,
            &enc_trace_payload(trace),
        );
    }
    let footer_offset = buf.len() as u64;
    buf.extend_from_slice(&enc_trace_footer(&entries));
    buf.extend_from_slice(&footer_offset.to_le_bytes());
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

// --------------------------------------------------------------------------
// TraceReader
// --------------------------------------------------------------------------

/// Random access into one `.pbtr` file with O(chunk) memory (the trace
/// sibling of [`crate::persist::ProbeReader`]).
///
/// [`TraceReader::open`] validates everything except probe payloads:
/// length, magic, version, the whole-file checksum (streamed), the
/// fingerprint (when expected), the trace revision, the footer and the
/// chunk table, and the meta chunk. [`TraceReader::read_probe`] then
/// validates the one chunk it touches (frame, checksum, index agreement,
/// exact payload decode).
#[derive(Debug)]
pub struct TraceReader {
    file: fs::File,
    file_len: u64,
    header: TraceHeader,
    chunks: Vec<ChunkEntry>,
    meta: TraceMeta,
}

impl TraceReader {
    /// Opens and validates `path`. With `Some(expected)`, a fingerprint
    /// mismatch is rejected as [`PersistError::Fingerprint`]; tooling
    /// that has no configuration passes `None` and checks the name
    /// against [`TraceHeader::fingerprint`] itself.
    pub fn open(path: &Path, expected_fingerprint: Option<u64>) -> Result<Self, PersistError> {
        let mut file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let min_len = (TRACE_HEADER_LEN + CHUNK_OVERHEAD + 8 + TRAILER_LEN) as u64;
        if file_len < min_len {
            return Err(PersistError::Corrupt(format!(
                "{file_len} bytes is too short for a trace file"
            )));
        }
        let mut head = vec![0u8; TRACE_HEADER_LEN];
        file.read_exact(&mut head)?;
        let header = read_trace_header(&head)?;

        // Trailer, then the streaming whole-file checksum over everything
        // before the stored seal.
        file.seek(SeekFrom::Start(file_len - TRAILER_LEN as u64))?;
        let mut trailer = [0u8; TRAILER_LEN];
        file.read_exact(&mut trailer)?;
        let mut dec = Dec::new(&trailer);
        let footer_offset = dec.u64()?;
        let stored_fnv = dec.u64()?;
        let footer_end = file_len - TRAILER_LEN as u64;
        if footer_offset < TRACE_HEADER_LEN as u64 || footer_offset > footer_end {
            return Err(PersistError::Corrupt(format!(
                "footer offset {footer_offset} is outside the file"
            )));
        }
        file.seek(SeekFrom::Start(0))?;
        let mut hash = FNV_BASIS;
        let mut remaining = file_len - 8;
        let mut buf = vec![0u8; 64 * 1024];
        while remaining > 0 {
            let want = remaining.min(buf.len() as u64) as usize;
            let slice = buf
                .get_mut(..want)
                .ok_or_else(|| PersistError::Corrupt("checksum window exceeds buffer".into()))?;
            file.read_exact(slice)?;
            hash = fnv1a_update(hash, slice);
            remaining -= want as u64;
        }
        if hash != stored_fnv {
            return Err(PersistError::Corrupt("checksum mismatch".into()));
        }
        if let Some(expected) = expected_fingerprint {
            if header.fingerprint != expected {
                return Err(PersistError::Fingerprint {
                    found: header.fingerprint,
                    expected,
                });
            }
        }
        if header.trace_revision != TRACE_REVISION {
            return Err(PersistError::Corrupt(format!(
                "trace revision {} (this build: {TRACE_REVISION})",
                header.trace_revision
            )));
        }

        // Footer and chunk table.
        let footer_len = usize::try_from(footer_end - footer_offset)
            .map_err(|_| PersistError::Corrupt("footer length overflows".into()))?;
        file.seek(SeekFrom::Start(footer_offset))?;
        let mut footer = vec![0u8; footer_len];
        file.read_exact(&mut footer)?;
        let chunks = dec_trace_footer(&footer)?;
        validate_trace_chunk_table(&chunks, footer_offset, &header)?;

        // Meta chunk (chunk table guarantees chunks[0] exists and is meta).
        let meta_entry = chunks
            .first()
            .copied()
            .ok_or_else(|| PersistError::Corrupt("empty chunk table".into()))?;
        let mut reader = TraceReader {
            file,
            file_len,
            header,
            chunks,
            meta: TraceMeta {
                benchmark: String::new(),
                interval_len: 0,
                probes: Vec::new(),
            },
        };
        let meta_payload = reader.read_chunk(&meta_entry)?;
        reader.meta = dec_trace_meta(&meta_payload)?;
        if reader.meta.probes.len() as u64 != header.n_probes {
            return Err(PersistError::Corrupt(format!(
                "meta lists {} probes but the header promises {}",
                reader.meta.probes.len(),
                header.n_probes
            )));
        }
        Ok(reader)
    }

    /// The validated file header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The decoded meta chunk.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of probes the file covers.
    pub fn n_probes(&self) -> usize {
        self.meta.probes.len()
    }

    /// The validated footer chunk index (for tooling such as
    /// `pbcol inspect`; the layout mirrors
    /// [`crate::persist::ProbeReader::chunk_index`]).
    pub fn chunk_index(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// Reads and validates one chunk's payload (O(chunk) memory).
    fn read_chunk(&mut self, entry: &ChunkEntry) -> Result<Vec<u8>, PersistError> {
        if entry
            .offset
            .checked_add(entry.len)
            .is_none_or(|e| e > self.file_len)
        {
            return Err(PersistError::Corrupt(
                "chunk extent outside the file".into(),
            ));
        }
        let len = usize::try_from(entry.len)
            .map_err(|_| PersistError::Corrupt("chunk length overflows".into()))?;
        self.file.seek(SeekFrom::Start(entry.offset))?;
        let mut bytes = vec![0u8; len];
        self.file.read_exact(&mut bytes)?;
        let chunk = parse_chunk(&bytes, entry.offset as usize)?;
        if chunk.len != len
            || chunk.kind != entry.kind
            || chunk.first_probe != entry.first_probe
            || chunk.n_probes != entry.n_probes
            || chunk.checksum != entry.checksum
        {
            return Err(PersistError::Corrupt(format!(
                "chunk at byte {} disagrees with the footer index",
                entry.offset
            )));
        }
        Ok(chunk.payload.to_vec())
    }

    /// Reads the trace of the probe with SimPoint ordinal `ordinal`.
    pub fn read_probe(&mut self, ordinal: usize) -> Result<Vec<Inst>, PersistError> {
        let entry = self
            .chunks
            .get(1 + ordinal)
            .copied()
            .filter(|c| c.kind == CHUNK_PROBES && c.first_probe == ordinal as u64)
            .ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "probe {ordinal} is outside the file's 0..{} range",
                    self.header.n_probes
                ))
            })?;
        let payload = self.read_chunk(&entry)?;
        dec_trace_payload(&payload)
    }
}

/// Fully verifies one `.pbtr` file: everything [`TraceReader::open`]
/// validates plus an exact payload decode of every probe chunk. Returns
/// the header and the total instruction count (for tooling output).
pub fn verify_trace_file(path: &Path) -> Result<(TraceHeader, u64), PersistError> {
    let mut reader = TraceReader::open(path, None)?;
    let mut total_insts = 0u64;
    for ordinal in 0..reader.n_probes() {
        total_insts += reader.read_probe(ordinal)?.len() as u64;
    }
    Ok((*reader.header(), total_insts))
}

// --------------------------------------------------------------------------
// TraceStore
// --------------------------------------------------------------------------

/// A directory of `.pbtr` trace files, keyed by benchmark and
/// fingerprint.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store rooted at `dir` (created lazily on the first build).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceStore { dir: dir.into() }
    }

    /// The store the environment selects: `Some` iff [`TRACE_DIR_ENV`]
    /// (`PERFBUG_TRACE_DIR`) is set and non-empty.
    pub fn from_env() -> Option<Self> {
        std::env::var(TRACE_DIR_ENV)
            .ok()
            .filter(|v| !v.is_empty())
            .map(TraceStore::new)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the trace file for `bench` at `scale`.
    pub fn trace_path(&self, bench: &BenchmarkSpec, scale: &WorkloadScale) -> PathBuf {
        self.dir
            .join(trace_file_name(bench.name, trace_fingerprint(bench, scale)))
    }

    /// Opens the trace file for `bench` at `scale`, building (or
    /// rebuilding) it first when it is missing, stale or damaged. The
    /// build regenerates every probe trace of the benchmark from
    /// `program` and publishes the file atomically, so a reader never
    /// observes a partial file and a concurrent builder loses nothing
    /// worse than duplicated work.
    pub fn open_or_build(
        &self,
        bench: &BenchmarkSpec,
        scale: &WorkloadScale,
        program: &Program,
    ) -> Result<TraceReader, PersistError> {
        let fingerprint = trace_fingerprint(bench, scale);
        let path = self.dir.join(trace_file_name(bench.name, fingerprint));
        match TraceReader::open(&path, Some(fingerprint)) {
            Ok(reader) => return Ok(reader),
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => note_rejection(),
        }
        self.build(bench, scale, program, fingerprint, &path)?;
        TraceReader::open(&path, Some(fingerprint))
    }

    fn build(
        &self,
        bench: &BenchmarkSpec,
        scale: &WorkloadScale,
        program: &Program,
        fingerprint: u64,
        path: &Path,
    ) -> Result<(), PersistError> {
        fs::create_dir_all(&self.dir)?;
        let probes = bench.probes(scale);
        let meta = TraceMeta {
            benchmark: bench.name.to_string(),
            interval_len: scale.interval_len as u64,
            probes: probes
                .iter()
                .map(|p| TraceProbeMeta {
                    interval: p.interval as u64,
                    weight_bits: p.weight.to_bits(),
                })
                .collect(),
        };
        let traces: Vec<Vec<Inst>> = probes
            .iter()
            .map(|p| {
                note_trace_regenerated();
                p.trace(program)
            })
            .collect();
        let bytes = encode_trace_file(fingerprint, &meta, &traces)?;
        save_trace_bytes(path, &bytes)
    }
}

// --------------------------------------------------------------------------
// TraceProvider
// --------------------------------------------------------------------------

/// The per-pass trace source the collection paths call instead of
/// `Probe::trace` directly: serves cached traces when a [`TraceStore`] is
/// configured, regenerates (and counts the regeneration) otherwise — and
/// on *any* cache failure, so a damaged cache degrades to the uncached
/// behaviour, never to a wrong trace.
///
/// Cache files are opened (or built) lazily per benchmark on first touch;
/// the pass's worker threads share the readers behind per-benchmark
/// locks, so a trace read is O(chunk) and never blocks another
/// benchmark's workers.
pub struct TraceProvider {
    store: Option<TraceStore>,
    scale: WorkloadScale,
    entries: BTreeMap<String, BenchEntry>,
}

struct BenchEntry {
    bench: BenchmarkSpec,
    cell: OnceLock<Option<Mutex<TraceReader>>>,
}

impl TraceProvider {
    /// A provider over `benches` at `scale`. With `store == None` every
    /// [`TraceProvider::trace`] call regenerates (the uncached path).
    pub fn new(store: Option<TraceStore>, benches: &[BenchmarkSpec], scale: WorkloadScale) -> Self {
        let entries = benches
            .iter()
            .map(|b| {
                (
                    b.name.to_string(),
                    BenchEntry {
                        bench: b.clone(),
                        cell: OnceLock::new(),
                    },
                )
            })
            .collect();
        TraceProvider {
            store,
            scale,
            entries,
        }
    }

    /// The trace of `probe`, from the store when possible, regenerated
    /// from `program` otherwise.
    pub fn trace(&self, probe: &Probe, program: &Program) -> Vec<Inst> {
        let cached = self.cached_trace(probe, program);
        match cached {
            Some(insts) => insts,
            None => {
                note_trace_regenerated();
                probe.trace(program)
            }
        }
    }

    fn cached_trace(&self, probe: &Probe, program: &Program) -> Option<Vec<Inst>> {
        let store = self.store.as_ref()?;
        let entry = self.entries.get(&probe.benchmark)?;
        let reader = entry.cell.get_or_init(|| {
            match store.open_or_build(&entry.bench, &self.scale, program) {
                Ok(reader) => Some(Mutex::new(reader)),
                Err(_) => None,
            }
        });
        let mutex = reader.as_ref()?;
        let mut guard = mutex.lock().ok()?;
        match self.checked_read(&mut guard, probe) {
            Some(insts) => Some(insts),
            None => {
                note_rejection();
                None
            }
        }
    }

    /// Reads `probe`'s trace only if the stored per-probe identity
    /// matches the requesting probe exactly.
    fn checked_read(&self, reader: &mut TraceReader, probe: &Probe) -> Option<Vec<Inst>> {
        let meta = reader.meta();
        if meta.benchmark != probe.benchmark || meta.interval_len != probe.interval_len as u64 {
            return None;
        }
        let stored = meta.probes.get(probe.simpoint)?;
        if stored.interval != probe.interval as u64 || stored.weight_bits != probe.weight.to_bits()
        {
            return None;
        }
        reader.read_probe(probe.simpoint).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_round_trip() {
        let name = trace_file_name("458.sjeng", 0xdead_beef_0123_4567);
        assert_eq!(name, "458.sjeng-trace-deadbeef01234567.pbtr");
        assert_eq!(
            parse_trace_file_name(&name),
            Some(("458.sjeng".to_string(), 0xdead_beef_0123_4567))
        );
        assert_eq!(parse_trace_file_name("458.sjeng.pbtr"), None);
        assert_eq!(parse_trace_file_name("-trace-deadbeef01234567.pbtr"), None);
        assert_eq!(parse_trace_file_name("a-trace-DEADBEEF01234567.pbtr"), None);
        assert_eq!(parse_trace_file_name("a-trace-deadbeef.pbtr"), None);
        assert!(is_trace_temp_file_name("x-trace-0.pbtr.123-0.tmp"));
        assert!(!is_trace_temp_file_name("x-trace-0.pbtr"));
        assert!(!is_trace_temp_file_name("x.pbcol.123-0.tmp"));
    }

    #[test]
    fn fingerprint_distinguishes_bench_and_scale() {
        let benches = perfbug_workloads::spec2006();
        let (a, b) = (&benches[0], &benches[1]);
        let tiny = WorkloadScale::tiny();
        let full = WorkloadScale::default();
        assert_ne!(trace_fingerprint(a, &tiny), trace_fingerprint(b, &tiny));
        assert_ne!(trace_fingerprint(a, &tiny), trace_fingerprint(a, &full));
        assert_eq!(trace_fingerprint(a, &tiny), trace_fingerprint(a, &tiny));
    }
}
