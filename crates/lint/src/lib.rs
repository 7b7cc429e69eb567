//! `pblint` — workspace invariant checking for the performance-bug
//! detection reproduction.
//!
//! The repository's core guarantees — bit-identical corpora under any
//! worker count or partition, crash-recoverable codec state, a byte-level
//! `PBCL` spec in `docs/FORMAT.md` — are enforced dynamically by
//! proptests and CI fault-injection guards. This crate adds the *static*
//! side: a hand-rolled, offline source scanner (no `syn`, no network)
//! that machine-checks the invariants a randomized test only catches by
//! luck:
//!
//! * **`hash-iter`** — `HashMap`/`HashSet` in output-critical files
//!   (codec, run reports, cache CLIs), where iteration order leaks into
//!   serialized bytes;
//! * **`wall-clock`** — `Instant::now`/`SystemTime::now` outside the
//!   timing allowlist;
//! * **`entropy-rng`** — entropy-seeded RNG construction anywhere;
//! * **`panic-policy`** / **`slice-index`** — `unwrap`/`expect`/`panic!`
//!   and unguarded indexing in panic-free zones (codec decode/recovery,
//!   orchestrator supervision), which must return `Err` so retry/resume
//!   logic stays reachable;
//! * **`format-spec`** — the constant tables in `docs/FORMAT.md` against
//!   the constants `persist.rs` actually declares;
//! * **`env-registry`** — every `PERFBUG_*` spelling against a declared
//!   registry plus README/docs.
//!
//! Scoped suppression: `// pblint: allow(<rule>) -- <reason>` on (or
//! directly above) the offending line; `allow-file` for a whole file.
//! The reason is mandatory. See `docs/LINTS.md` for the full rulebook
//! and `src/bin/pblint.rs` for the CLI CI runs (`pblint --deny-all`).

#![forbid(unsafe_code)]

pub mod config;
pub mod envreg;
pub mod rules;
pub mod scan;
pub mod spec;

use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation (or meta-finding) at a workspace location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line; 0 for file- or workspace-level findings.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        }
    }
}

/// The outcome of one whole-workspace lint pass.
#[derive(Debug)]
pub struct LintRun {
    /// Findings sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Rust files scanned by the line rules.
    pub files_scanned: usize,
}

impl LintRun {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable report (stable field order, findings sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"pblint_version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
/// A copy of `perfbug_core::report::json_str`: the linter scans the
/// workspace without depending on any of its crates.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collects `.rs` files under `dir` (sorted for determinism),
/// skipping `target/` and lint fixture corpora.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule over the workspace at `root`. Returns `Err` only for
/// environmental problems (unreadable tree); findings are data.
pub fn run_workspace(root: &Path) -> Result<LintRun, String> {
    // Production scope: crate sources and binaries. The line rules run
    // here (tests/benches/examples panic and measure time by design).
    let mut prod_files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(crate_entries) = fs::read_dir(&crates_dir) else {
        return Err(format!("no crates/ directory under {}", root.display()));
    };
    let mut crate_dirs: Vec<_> = crate_entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    let walk_srcs = |dir: &Path, out: &mut Vec<PathBuf>| {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, out);
        }
    };
    for crate_dir in &crate_dirs {
        // Self-exemption: the linter's own sources hold rule tokens,
        // suppression-syntax examples and fixture variable names as
        // *data*; scanning them is all false positives (and the registry
        // in config.rs would count as a "mention" of every variable,
        // blinding the stale-entry check). rustfmt/clippy still cover it.
        if crate_dir.file_name().and_then(|n| n.to_str()) == Some("lint") {
            continue;
        }
        if crate_dir.join("Cargo.toml").is_file() {
            walk_srcs(crate_dir, &mut prod_files);
        }
        // Nested layout: crates/compat/<name>.
        if crate_dir.is_dir() && !crate_dir.join("Cargo.toml").is_file() {
            let Ok(nested) = fs::read_dir(crate_dir) else {
                continue;
            };
            let mut nested: Vec<_> = nested.flatten().map(|e| e.path()).collect();
            nested.sort();
            for n in nested {
                if n.join("Cargo.toml").is_file() {
                    walk_srcs(&n, &mut prod_files);
                }
            }
        }
    }
    walk_srcs(root, &mut prod_files);

    // Wider scope for the env-var registry: tests, benches and examples
    // read knobs too.
    let mut env_files = prod_files.clone();
    for extra in ["tests", "examples"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            collect_rs(&dir, &mut env_files);
        }
    }
    for crate_dir in &crate_dirs {
        if crate_dir.file_name().and_then(|n| n.to_str()) == Some("lint") {
            continue;
        }
        for extra in ["tests", "benches"] {
            let dir = crate_dir.join(extra);
            if dir.is_dir() {
                collect_rs(&dir, &mut env_files);
            }
        }
    }

    let mut findings: Vec<Finding> = Vec::new();

    // Line rules over production sources.
    let mut scanned_prod = Vec::with_capacity(prod_files.len());
    for path in &prod_files {
        let content =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = rel_path(root, path);
        let file = scan::scan_source(&rel, &content);
        findings.extend(rules::check_file(&file, config::classify(&rel)));
        scanned_prod.push(file);
    }

    // Env-registry over the wider scope (reuse already-scanned files).
    let mut scanned_env = scanned_prod;
    for path in &env_files {
        let rel = rel_path(root, path);
        if scanned_env.iter().any(|f| f.rel == rel) {
            continue;
        }
        let content =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        scanned_env.push(scan::scan_source(&rel, &content));
    }
    let docs_text = read_docs(root);
    findings.extend(envreg::check_env_registry(&scanned_env, &docs_text));

    // Format-spec conformance.
    let doc = fs::read_to_string(root.join("docs/FORMAT.md"))
        .map_err(|e| format!("read docs/FORMAT.md: {e}"))?;
    let code = fs::read_to_string(root.join("crates/core/src/persist.rs"))
        .map_err(|e| format!("read crates/core/src/persist.rs: {e}"))?;
    findings.extend(spec::check_format_spec(&doc, &code));

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(LintRun {
        findings,
        files_scanned: scanned_env.len(),
    })
}

/// README.md plus every `docs/*.md`, concatenated (documentation-presence
/// checks search this).
fn read_docs(root: &Path) -> String {
    let mut text = fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let docs = root.join("docs");
    let mut md: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(&docs) {
        md.extend(entries.flatten().map(|e| e.path()));
    }
    md.sort();
    for p in md {
        if p.extension().and_then(|e| e.to_str()) == Some("md") {
            text.push('\n');
            text.push_str(&fs::read_to_string(&p).unwrap_or_default());
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_ish() {
        let run = LintRun {
            findings: vec![Finding {
                rule: "hash-iter",
                file: "a/b.rs".into(),
                line: 3,
                message: "say \"no\"".into(),
            }],
            files_scanned: 1,
        };
        let json = run.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\\\"no\\\""));
        let clean = LintRun {
            findings: vec![],
            files_scanned: 1,
        };
        assert!(clean.to_json().contains("\"clean\": true"));
    }

    #[test]
    fn display_formats_with_and_without_line() {
        let f = Finding {
            rule: "format-spec",
            file: "docs/FORMAT.md".into(),
            line: 0,
            message: "drift".into(),
        };
        assert_eq!(f.to_string(), "docs/FORMAT.md: [format-spec] drift");
    }
}
