//! End-to-end tests for `vlite-lint`: tricky lexing over fixtures, the
//! suppression lifecycle, one golden `--json` rendering, and the
//! self-check that the live workspace scans clean inside the CI budget.

use std::path::Path;

use vlite_analyze::{analyze_source, analyze_workspace, Diagnostic, Report};

fn scan(relpath: &str, source: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    analyze_source(relpath, source, &mut diags);
    diags
}

#[test]
fn patterns_in_strings_and_comments_do_not_fire() {
    let source = include_str!("fixtures/tricky_lexing.rs");
    let diags = scan("crates/serve/src/fixture_tricky.rs", source);
    let found: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    // Exactly the two real violations: the sleep and the poisoning lock —
    // nothing from the quoted/commented copies of the same text, and no
    // chain match across the statement boundary in the last function.
    assert_eq!(
        found,
        vec![("clock-discipline", 27), ("lock-hygiene", 31)],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn kernel_dispatch_fires_outside_the_dispatcher_only() {
    let source = include_str!("fixtures/kernel_dispatch.rs");
    let mut diags = scan("crates/store/src/fixture_kernel_dispatch.rs", source);
    diags.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    let found: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(
        found,
        vec![
            // Detection in a loop body and at top level both fire; the
            // quoted/commented copies above them never do.
            ("kernel-dispatch", 20),
            ("kernel-dispatch", 28),
            // `unsafe` outside the audited kernel/mmap scopes.
            ("unsafe-audit", 32),
        ],
        "diagnostics: {diags:#?}"
    );

    // The same detection text under the dispatcher's own path is allowed…
    let allowed = scan("crates/ann/src/kernel/mod.rs", source);
    assert!(
        allowed.iter().all(|d| d.rule != "kernel-dispatch"),
        "the dispatcher itself may detect features: {allowed:#?}"
    );
    // …and a SAFETY-commented `unsafe` inside the kernel scope is too.
    let kernel_unsafe = "// SAFETY: CPUID-gated by dispatch; loads stay in bounds.\n\
                         pub fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
    assert!(
        scan("crates/ann/src/kernel/x86.rs", kernel_unsafe).is_empty(),
        "SAFETY-commented kernel unsafe must pass the audit"
    );
}

#[test]
fn one_placement_pass_fires_on_a_hand_written_chain_only() {
    let source = include_str!("fixtures/one_placement_pass.rs");
    let diags = scan("crates/serve/src/fixture_placement.rs", source);
    let found: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    // The three calls of the hand-written chain; nothing from the quoted
    // and commented copies or from `repartition(`.
    assert_eq!(
        found,
        vec![
            ("one-placement-pass", 20),
            ("one-placement-pass", 21),
            ("one-placement-pass", 22),
        ],
        "diagnostics: {diags:#?}"
    );
    // The rule covers the real-tier build too, and only non-test code.
    assert_eq!(scan("crates/core/src/real.rs", source).len(), 3);
    assert!(scan("crates/core/src/partition.rs", source).is_empty());
    assert!(scan("crates/serve/tests/fixture_placement.rs", source).is_empty());
}

#[test]
fn caller_thread_scan_fires_outside_the_http_frontend_only() {
    let source = include_str!("fixtures/caller_thread_scan.rs");
    let found = |relpath: &str| -> Vec<(String, usize)> {
        (scan(relpath, source).into_iter())
            .map(|d| (d.rule, d.line))
            .collect()
    };
    // The one real call; nothing from the quoted and commented copies or
    // from the longer names.
    let call = vec![("caller-thread-scan".to_string(), 21)];
    assert_eq!(found("crates/serve/src/loadgen.rs"), call);
    // Test code and other crates are covered too.
    assert_eq!(found("crates/serve/src/queue.rs"), call);
    assert_eq!(found("tests/http_frontend.rs"), call);
    assert_eq!(found("crates/bench/src/bin/serve_smoke.rs"), call);
    // The frontend and the entry's own file may name it.
    assert!(found("crates/serve/src/http/server.rs").is_empty());
    assert!(found("crates/serve/src/server.rs").is_empty());
}

#[test]
fn suppression_lifecycle_is_enforced() {
    let source = include_str!("fixtures/suppressions.rs");
    let mut diags = scan("crates/serve/src/fixture_suppressions.rs", source);
    diags.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    let found: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule.as_str(), d.line)).collect();
    assert_eq!(
        found,
        vec![
            // A waiver with no reason is itself an error (the finding it
            // covers stays suppressed so the fix is to add the reason).
            ("suppression-hygiene", 16),
            // A waiver naming an unknown rule suppresses nothing...
            ("suppression-hygiene", 21),
            // ...so the finding it meant to cover still fires.
            ("clock-discipline", 22),
            // A waiver that covers nothing is stale and must go.
            ("suppression-hygiene", 26),
        ],
        "diagnostics: {diags:#?}"
    );
    assert!(
        diags.iter().all(|d| d.line != 8 && d.line != 12),
        "valid leading and trailing waivers must suppress cleanly: {diags:#?}"
    );
}

#[test]
fn json_report_matches_golden() {
    let source = include_str!("fixtures/suppressions.rs");
    let mut diagnostics = scan("crates/serve/src/fixture_suppressions.rs", source);
    diagnostics.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    let report = Report {
        diagnostics,
        files_scanned: 1,
        elapsed_ms: 0,
    };
    assert_eq!(
        report.to_json(),
        include_str!("fixtures/golden_suppressions.json"),
        "JSON rendering drifted from the golden file"
    );
}

/// The gate's own gate: the live workspace must scan clean, and the scan
/// must stay far under the 5-second CI budget — the analyzer is only
/// viable as an every-push check while it stays effectively free.
#[test]
fn live_workspace_is_clean_and_fast() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let started = std::time::Instant::now();
    let report = analyze_workspace(&root).expect("workspace scan succeeds");
    let elapsed = started.elapsed();
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "scan took {elapsed:?}, over the 5 s CI budget"
    );
}
