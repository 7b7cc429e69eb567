//! Integration tests: the seeded-violation fixture corpus, suppression
//! behaviour, format-spec drift detection by mutation, and the
//! workspace-clean gate the CI job relies on.

use std::fs;
use std::path::{Path, PathBuf};

use perfbug_lint::config::FileClass;
use perfbug_lint::{config, rules, run_workspace, scan, spec, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scans a fixture under a synthetic workspace-relative name and class.
fn lint_fixture(name: &str, class: FileClass) -> Vec<Finding> {
    let rel = format!("crates/demo/src/{name}");
    let file = scan::scan_source(&rel, &fixture(name));
    rules::check_file(&file, class)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

const OUTPUT_CRITICAL: FileClass = FileClass {
    output_critical: true,
    timing_allowed: false,
    panic_free: false,
};
const PANIC_FREE: FileClass = FileClass {
    output_critical: false,
    timing_allowed: false,
    panic_free: true,
};
const PLAIN: FileClass = FileClass {
    output_critical: false,
    timing_allowed: false,
    panic_free: false,
};

#[test]
fn hash_iter_fixture_fires_only_on_code_uses() {
    let findings = lint_fixture("hash_iter.rs", OUTPUT_CRITICAL);
    assert_eq!(
        rules_of(&findings),
        ["hash-iter"; 4].to_vec(),
        "{findings:?}"
    );
    // The trailing string/comment mentions must not fire: every finding
    // sits in the `use`/signature/body lines (3..=7).
    assert!(
        findings.iter().all(|f| (3..=7).contains(&f.line)),
        "{findings:?}"
    );
    // Outside an output-critical file the rule is inapplicable.
    assert!(lint_fixture("hash_iter.rs", PLAIN).is_empty());
}

#[test]
fn wall_clock_fixture_fires_unless_allowlisted() {
    let findings = lint_fixture("wall_clock.rs", PLAIN);
    assert_eq!(
        rules_of(&findings),
        ["wall-clock"; 3].to_vec(),
        "{findings:?}"
    );
    let allowed = FileClass {
        timing_allowed: true,
        ..PLAIN
    };
    assert!(lint_fixture("wall_clock.rs", allowed).is_empty());
}

#[test]
fn entropy_rng_fixture_fires_everywhere_but_not_on_seeded() {
    let findings = lint_fixture("entropy_rng.rs", PLAIN);
    assert_eq!(
        rules_of(&findings),
        ["entropy-rng"; 4].to_vec(),
        "{findings:?}"
    );
    // seed_from_u64(42) is the approved idiom.
    assert!(findings.iter().all(|f| f.line < 13), "{findings:?}");
}

#[test]
fn panic_policy_fixture_fires_with_try_into_carveout() {
    let findings = lint_fixture("panic_policy.rs", PANIC_FREE);
    let panics: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "panic-policy")
        .collect();
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented! — and
    // NOT the `try_into().expect("8 bytes")` conversion.
    assert_eq!(panics.len(), 6, "{findings:?}");
    assert!(panics.iter().all(|f| f.line != 20), "{findings:?}");
    // In a non-panic-free file the rule is inapplicable.
    assert!(lint_fixture("panic_policy.rs", PLAIN).is_empty());
}

#[test]
fn slice_index_fixture_fires_on_reads_not_types() {
    let findings = lint_fixture("slice_index.rs", PANIC_FREE);
    assert_eq!(
        rules_of(&findings),
        ["slice-index"; 4].to_vec(),
        "{findings:?}"
    );
    // `.get(0)`, `[u8; 4]` types and array literals stay silent.
    assert!(findings.iter().all(|f| f.line <= 8), "{findings:?}");
}

#[test]
fn valid_suppressions_silence_their_rule() {
    let class = FileClass {
        output_critical: true,
        timing_allowed: false,
        panic_free: true,
    };
    let findings = lint_fixture("suppressed.rs", class);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allow_file_scopes_to_one_rule_only() {
    let findings = lint_fixture("allow_file.rs", PANIC_FREE);
    // slice-index is suppressed file-wide; the wall-clock read still fires.
    assert_eq!(rules_of(&findings), vec!["wall-clock"], "{findings:?}");
}

#[test]
fn malformed_suppressions_are_findings_and_do_not_suppress() {
    let class = FileClass {
        output_critical: true,
        timing_allowed: false,
        panic_free: false,
    };
    let findings = lint_fixture("bad_suppression.rs", class);
    let mut rules = rules_of(&findings);
    rules.sort_unstable();
    // Both malformed directives are reported, and both underlying
    // violations still fire.
    assert_eq!(
        rules,
        vec!["hash-iter", "suppression", "suppression", "wall-clock"],
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "suppression" && f.message.contains("reason")),
        "missing-reason diagnostic: {findings:?}"
    );
}

#[test]
fn cfg_test_modules_are_exempt() {
    let class = FileClass {
        output_critical: true,
        timing_allowed: false,
        panic_free: true,
    };
    let findings = lint_fixture("test_module.rs", class);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// format-spec drift, by mutating the real spec and the real constants
// ---------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

fn real_doc() -> String {
    fs::read_to_string(workspace_root().join("docs/FORMAT.md")).expect("read FORMAT.md")
}

fn real_code() -> String {
    fs::read_to_string(workspace_root().join("crates/core/src/persist.rs"))
        .expect("read persist.rs")
}

#[test]
fn format_spec_is_clean_on_the_real_pair() {
    let findings = spec::check_format_spec(&real_doc(), &real_code());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn format_spec_detects_doc_drift() {
    // The spec says the fixed header is 53 bytes; claim 54.
    let doc = real_doc().replace("is 53 bytes", "is 54 bytes");
    let findings = spec::check_format_spec(&doc, &real_code());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "format-spec" && f.message.contains("header")),
        "{findings:?}"
    );
}

#[test]
fn format_spec_detects_code_drift() {
    let code = real_code().replace(
        "pub const FORMAT_VERSION: u32 = 4;",
        "pub const FORMAT_VERSION: u32 = 5;",
    );
    assert_ne!(code, real_code(), "mutation must apply");
    let findings = spec::check_format_spec(&real_doc(), &code);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "format-spec" && f.message.contains("version")),
        "{findings:?}"
    );
}

#[test]
fn format_spec_detects_a_vanished_anchor() {
    let doc = real_doc().replace("offset basis", "starting basis");
    let findings = spec::check_format_spec(&doc, &real_code());
    assert!(
        findings.iter().any(|f| f.message.contains("anchor")),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------------
// the CI gate
// ---------------------------------------------------------------------

#[test]
fn workspace_is_clean() {
    let run = run_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        run.is_clean(),
        "pblint findings in the workspace:\n{}",
        run.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(run.files_scanned > 50, "scanned {}", run.files_scanned);
}

#[test]
fn every_policed_path_exists() {
    // A renamed file must not silently drop out of its invariant scope.
    let root = workspace_root();
    for rel in config::OUTPUT_CRITICAL
        .iter()
        .chain(config::TIMING_ALLOWED)
        .chain(config::PANIC_FREE)
    {
        assert!(root.join(rel).is_file(), "policy lists missing file {rel}");
    }
}

#[test]
fn deny_all_fails_on_a_seeded_workspace() {
    // End-to-end: a throwaway workspace holding one fixture violation
    // must make `pblint --deny-all` exit 1 and name the finding.
    let tmp = std::env::temp_dir().join(format!("pblint-e2e-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    let demo_src = tmp.join("crates/demo/src");
    fs::create_dir_all(&demo_src).expect("mkdir demo");
    fs::create_dir_all(tmp.join("crates/core/src")).expect("mkdir core");
    fs::create_dir_all(tmp.join("docs")).expect("mkdir docs");
    fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("ws manifest");
    fs::write(tmp.join("crates/demo/Cargo.toml"), "[package]\n").expect("demo manifest");
    fs::write(demo_src.join("lib.rs"), fixture("wall_clock.rs")).expect("seed violation");
    // Real spec pair + docs so format-spec and env-registry stay clean.
    fs::write(tmp.join("docs/FORMAT.md"), real_doc()).expect("copy FORMAT.md");
    fs::write(tmp.join("crates/core/src/persist.rs"), real_code()).expect("copy persist.rs");
    fs::copy(workspace_root().join("README.md"), tmp.join("README.md")).expect("copy README");
    for rel in [
        "crates/core/src/orchestrate/mod.rs",
        "crates/core/src/orchestrate/remote.rs",
        "crates/core/src/serve.rs",
        "crates/bench/src/lib.rs",
    ] {
        let dst = tmp.join(rel);
        fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
        fs::copy(workspace_root().join(rel), &dst).expect("copy PERFBUG_* read sites");
    }

    let json = tmp.join("report.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pblint"))
        .args(["--deny-all", "--root"])
        .arg(&tmp)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run pblint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[wall-clock]"), "stdout:\n{stdout}");
    let report = fs::read_to_string(&json).expect("json written even on failure");
    assert!(report.contains("\"clean\": false"), "{report}");
    fs::remove_dir_all(&tmp).expect("cleanup");
}

#[test]
fn cli_list_rules_matches_the_rulebook() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pblint"))
        .arg("--list-rules")
        .output()
        .expect("run pblint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for rule in rules::RULE_IDS {
        assert!(stdout.contains(rule), "missing {rule} in: {stdout}");
    }
}
