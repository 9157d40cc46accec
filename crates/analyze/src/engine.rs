//! Rule engine: file discovery, pattern matching, suppressions, output.
//!
//! The engine walks the workspace tree, lexes every `.rs` file into code
//! and comment views ([`crate::lexer`]), runs each in-scope rule's
//! patterns over the code view, and resolves findings against inline
//! suppressions and justification comments. Suppression hygiene is itself
//! checked: a suppression must name a real rule, carry a reason, and
//! actually suppress something — anything else is a diagnostic, so the
//! gate cannot rot into a pile of stale waivers.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, FileView};
use crate::rules::{rule_exists, rules, Check, Pattern, Rule};

/// Maximum gap (bytes) between a pattern's consecutive fragments.
const MAX_FRAG_GAP: usize = 64;

/// The pseudo-rule id for suppression-hygiene findings.
pub const SUPPRESSION_RULE: &str = "suppression-hygiene";

/// One finding, pointing at a file and 1-indexed line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line of the finding.
    pub line: usize,
    /// The rule id (or [`SUPPRESSION_RULE`]).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of one workspace scan.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Wall-clock scan duration in milliseconds (set by the caller; the
    /// library itself does not read the clock).
    pub elapsed_ms: u128,
}

impl Report {
    /// Renders the report as deterministic JSON. `elapsed_ms` is emitted
    /// last so golden tests can compare everything before it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(&d.rule),
                json_str(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"elapsed_ms\": {}\n}}\n",
            self.files_scanned, self.elapsed_ms
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An inline `vlite-allow` suppression parsed from a comment.
#[derive(Debug)]
struct Suppression {
    /// Line the comment sits on (1-indexed).
    decl_line: usize,
    /// Line whose findings it suppresses.
    target_line: usize,
    rule: String,
    reason_ok: bool,
    used: bool,
}

/// Scans one file's source and appends diagnostics. `relpath` must use
/// `/` separators; scoping, allowlists and test detection key off it.
pub fn analyze_source(relpath: &str, source: &str, diagnostics: &mut Vec<Diagnostic>) {
    let view = lex(source);
    let file_is_test = relpath.starts_with("tests/") || relpath.contains("/tests/");
    let mut suppressions = parse_suppressions(&view);

    for rule in rules() {
        if !in_scope(rule, relpath) {
            continue;
        }
        let allow = rule
            .allow
            .iter()
            .find(|(prefix, _)| relpath.starts_with(prefix));
        if allow.is_some() && !matches!(rule.check, Check::UnsafeAudit { .. }) {
            continue;
        }
        if !rule.include_tests && file_is_test {
            continue;
        }
        let mut lines_hit: Vec<usize> = Vec::new();
        for pattern in rule.patterns {
            for pos in pattern_matches(&view.code_text, pattern) {
                lines_hit.push(view.line_of(pos));
            }
        }
        lines_hit.sort_unstable();
        lines_hit.dedup();
        for line in lines_hit {
            let idx = line - 1;
            if !rule.include_tests && view.lines[idx].in_test {
                continue;
            }
            if suppressed(&mut suppressions, rule.id, line) {
                continue;
            }
            let message = match rule.check {
                Check::Forbid => rule.message.to_string(),
                Check::ForbidUnlessMarker { marker, window } => {
                    if has_marker(&view, idx, marker, window) {
                        continue;
                    }
                    rule.message.to_string()
                }
                Check::UnsafeAudit { window } => match allow {
                    None => rule.message.to_string(),
                    Some(_) => {
                        if has_marker(&view, idx, "safety", window) {
                            continue;
                        }
                        "`unsafe` without a `// SAFETY:` (or `# Safety`) comment within 8 lines"
                            .to_string()
                    }
                },
            };
            diagnostics.push(Diagnostic {
                file: relpath.to_string(),
                line,
                rule: rule.id.to_string(),
                message,
            });
        }
    }

    for s in &suppressions {
        let problem = if !rule_exists(&s.rule) {
            Some(format!("suppression names unknown rule `{}`", s.rule))
        } else if !s.reason_ok {
            Some(format!(
                "suppression of `{}` has no reason; write `: <why this is sound>`",
                s.rule
            ))
        } else if !s.used {
            Some(format!(
                "unused suppression of `{}`: nothing fires on line {}",
                s.rule, s.target_line
            ))
        } else {
            None
        };
        if let Some(message) = problem {
            diagnostics.push(Diagnostic {
                file: relpath.to_string(),
                line: s.decl_line,
                rule: SUPPRESSION_RULE.to_string(),
                message,
            });
        }
    }
}

fn in_scope(rule: &Rule, relpath: &str) -> bool {
    rule.scope.is_empty() || rule.scope.iter().any(|p| relpath.starts_with(p))
}

fn suppressed(supps: &mut [Suppression], rule: &str, line: usize) -> bool {
    for s in supps.iter_mut() {
        if s.target_line == line && s.rule == rule {
            s.used = true;
            return true;
        }
    }
    false
}

/// Whether a comment containing `marker` (case-insensitive) appears on
/// the match's line or within `window` lines above it.
fn has_marker(view: &FileView, idx: usize, marker: &str, window: usize) -> bool {
    let lo = idx.saturating_sub(window);
    view.lines[lo..=idx]
        .iter()
        .any(|l| l.comment.to_ascii_lowercase().contains(marker))
}

/// A suppression is a comment whose text *starts with*
/// `vlite-allow(<rule>)` — anchoring at the comment start keeps prose
/// that merely mentions the syntax from parsing as one. A comment-only
/// line suppresses the next code line; a trailing comment its own.
fn parse_suppressions(view: &FileView) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, line) in view.lines.iter().enumerate() {
        let text = line.comment.trim();
        let Some(rest) = text.strip_prefix("vlite-allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = &rest[..close];
        if rule.is_empty()
            || !rule
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            continue; // prose, e.g. `vlite-allow(<rule>)` in docs
        }
        let after = rest[close + 1..].trim_start();
        let reason_ok = after
            .strip_prefix(':')
            .map(str::trim)
            .is_some_and(|r| r.len() >= 3);
        let target_line = if line.code.trim().is_empty() {
            // Comment-only line: cover the next line carrying code.
            let mut target = i + 1;
            for (j, next) in view.lines.iter().enumerate().skip(i + 1).take(3) {
                if !next.code.trim().is_empty() {
                    target = j;
                    break;
                }
            }
            target + 1
        } else {
            i + 1
        };
        out.push(Suppression {
            decl_line: i + 1,
            target_line,
            rule: rule.to_string(),
            reason_ok,
            used: false,
        });
    }
    out
}

/// All match positions of `pattern` in `code` (byte offsets of the first
/// fragment).
fn pattern_matches(code: &str, pattern: &Pattern) -> Vec<usize> {
    let bytes = code.as_bytes();
    let first = pattern.frags[0];
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(first) {
        let start = from + rel;
        from = start + 1;
        if pattern.word {
            let before_ok = start == 0 || !is_word_byte(bytes[start - 1]);
            let after = start + first.len();
            let after_ok = after >= bytes.len() || !is_word_byte(bytes[after]);
            if !before_ok || !after_ok {
                continue;
            }
        }
        let mut pos = start + first.len();
        let mut ok = true;
        'frags: for frag in &pattern.frags[1..] {
            let limit = (pos + MAX_FRAG_GAP).min(bytes.len());
            let mut j = pos;
            loop {
                if code[j..].starts_with(frag) {
                    pos = j + frag.len();
                    continue 'frags;
                }
                if j >= limit || matches!(bytes.get(j), Some(b';' | b'{' | b'}' | b'(' | b')')) {
                    ok = false;
                    break 'frags;
                }
                j += 1;
            }
        }
        if ok {
            out.push(start);
        }
    }
    out
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Directories never scanned, as workspace-relative prefixes.
const SKIP_PREFIXES: &[&str] = &[
    "target/",
    ".git/",
    // Vendored stand-ins for registry crates: they mirror external APIs
    // (real time, channel internals) and are not project code.
    "crates/shims/",
    // Deliberate rule violations used by the analyzer's own tests.
    "crates/analyze/tests/fixtures/",
];

/// Scans every `.rs` file under `root` (skipping `SKIP_PREFIXES`) and
/// returns the sorted diagnostics. `elapsed_ms` is left at zero — the
/// caller stamps it, keeping the library clock-free.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut diagnostics = Vec::new();
    for path in &files {
        let rel = relpath(root, path);
        let source = std::fs::read_to_string(path)?;
        analyze_source(&rel, &source, &mut diagnostics);
    }
    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, &a.rule)
            .partial_cmp(&(&b.file, b.line, &b.rule))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
        elapsed_ms: 0,
    })
}

fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = relpath(root, &path);
        if SKIP_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) || format!("{rel}/").starts_with(p))
        {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Pattern;

    #[test]
    fn fragments_chain_across_whitespace_but_not_statements() {
        let pat = Pattern {
            frags: &[".lock()", ".expect("],
            word: false,
        };
        assert_eq!(pattern_matches("m.lock().expect(s)", &pat).len(), 1);
        assert_eq!(pattern_matches("m.lock()\n    .expect(s)", &pat).len(), 1);
        assert_eq!(pattern_matches("m.lock(); x.expect(s)", &pat).len(), 0);
        assert_eq!(pattern_matches("m.lock().map(f).expect(s)", &pat).len(), 0);
    }

    #[test]
    fn word_boundaries_respected() {
        let pat = Pattern {
            frags: &["unsafe"],
            word: true,
        };
        assert_eq!(pattern_matches("#[allow(unsafe_code)]", &pat).len(), 0);
        assert_eq!(pattern_matches("unsafe { f() }", &pat).len(), 1);
    }

    #[test]
    fn wait_expect_matches_through_the_guard_argument() {
        let pat = Pattern {
            frags: &[".wait(", ").expect("],
            word: false,
        };
        assert_eq!(pattern_matches("cv.wait(guard).expect(m)", &pat).len(), 1);
        assert_eq!(pattern_matches("cv.wait(g(x)).expect(m)", &pat).len(), 0);
    }
}
