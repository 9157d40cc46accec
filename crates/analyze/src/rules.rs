//! The project-invariant rule set.
//!
//! Every rule here encodes a discipline the runtime's correctness already
//! leans on but nothing previously enforced: VirtualClock determinism,
//! the audited `unsafe` surface, justified relaxed atomics, poisoned-lock
//! recovery, bounded admission, and panic-free hot paths. Rules are data
//! (patterns + scopes + allowlists); the matching itself lives in
//! [`crate::engine`].
//!
//! # Adding a rule
//!
//! 1. Add a [`Rule`] entry to [`rules`] with a unique kebab-case id.
//! 2. Pick a [`Check`]: `Forbid` (pattern is always a finding),
//!    `ForbidUnlessMarker` (finding unless a justification comment with
//!    the marker appears within `window` lines above), or `UnsafeAudit`
//!    (allowlisted files may contain `unsafe`, but every site needs a
//!    `SAFETY:` comment; everywhere else `unsafe` is an error).
//! 3. Add a fixture under `crates/analyze/tests/fixtures/` exercising a
//!    real violation *and* the same text inside a string/comment.
//! 4. Document the rule in the README's "Correctness tooling" table.

/// A textual pattern: `frags` must appear in order in the code view, with
/// at most 64 bytes of "gap" (no `;`, `{`, `}`, `(`, `)`) between
/// consecutive fragments, so chained calls split across lines still match
/// while matches never leak across statements.
#[derive(Debug)]
pub struct Pattern {
    /// Ordered literal fragments.
    pub frags: &'static [&'static str],
    /// Require identifier-boundaries around the first fragment.
    pub word: bool,
}

/// How pattern matches turn into diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every match is a finding (unless suppressed).
    Forbid,
    /// A match is a finding unless a comment containing `marker`
    /// (case-insensitive) appears on the same line or within `window`
    /// lines above.
    ForbidUnlessMarker {
        /// Case-insensitive justification marker, e.g. `relaxed:`.
        marker: &'static str,
        /// Lines above the match searched for the marker.
        window: usize,
    },
    /// `unsafe` audit: outside allowlisted files any match is a finding;
    /// inside them a match still needs a `SAFETY` comment within
    /// `window` lines above.
    UnsafeAudit {
        /// Lines above the match searched for a `SAFETY` comment.
        window: usize,
    },
}

/// One project invariant, as data.
#[derive(Debug)]
pub struct Rule {
    /// Stable kebab-case id, used in diagnostics and suppressions.
    pub id: &'static str,
    /// One-line description for `--list-rules` and the README.
    pub summary: &'static str,
    /// Whether the rule also applies inside `#[cfg(test)]` regions and
    /// `tests/` directories.
    pub include_tests: bool,
    /// Path prefixes the rule applies to; empty means the whole tree.
    pub scope: &'static [&'static str],
    /// `(path prefix, reason)` pairs exempt from the rule. For
    /// [`Check::UnsafeAudit`] the allowlist instead names where `unsafe`
    /// is *permitted* (still requiring SAFETY comments).
    pub allow: &'static [(&'static str, &'static str)],
    /// The patterns that trigger the rule.
    pub patterns: &'static [Pattern],
    /// What a match means.
    pub check: Check,
    /// Diagnostic message.
    pub message: &'static str,
}

const fn pat(frags: &'static [&'static str]) -> Pattern {
    Pattern { frags, word: false }
}

const fn word(frags: &'static [&'static str]) -> Pattern {
    Pattern { frags, word: true }
}

/// The rule set, in reporting order.
pub fn rules() -> &'static [Rule] {
    const RULES: &[Rule] = &[
        Rule {
            id: "clock-discipline",
            summary: "all timestamps and waits go through the Clock trait",
            include_tests: true,
            scope: &[],
            allow: &[
                (
                    "crates/serve/src/clock.rs",
                    "the Clock abstraction's own wall-clock implementation",
                ),
                (
                    "crates/bench/",
                    "offline benchmark harness: measuring wall-clock time is its purpose",
                ),
                (
                    "crates/analyze/",
                    "the analyzer times its own scan for the CI <5s budget and never runs under VirtualClock",
                ),
            ],
            patterns: &[
                pat(&["Instant::now("]),
                pat(&["SystemTime::now("]),
                pat(&["thread::sleep("]),
                pat(&["sleep_ms("]),
            ],
            check: Check::Forbid,
            message: "raw wall-clock call outside the Clock abstraction; thread a `Clock` through \
                      (VirtualClock tests stay deterministic only if every timestamp and wait does)",
        },
        Rule {
            id: "unsafe-audit",
            summary: "`unsafe` only in audited scopes (mmap shim, SIMD kernels), every site SAFETY-commented",
            include_tests: true,
            scope: &[],
            allow: &[
                (
                    "crates/store/src/mmap.rs",
                    "the workspace's audited unsafe surface: raw mmap/munmap syscalls behind a safe facade",
                ),
                (
                    "crates/ann/src/kernel/",
                    "the CPUID-gated std::arch SIMD kernels; every intrinsic block argues \
                     alignment/length/feature-gate in its SAFETY comment",
                ),
                (
                    "crates/metrics/src/cputime.rs",
                    "the profiler's audited unsafe surface: the raw clock_gettime syscall \
                     behind a safe facade, mirroring the mmap shim",
                ),
            ],
            patterns: &[word(&["unsafe"])],
            check: Check::UnsafeAudit { window: 8 },
            message: "`unsafe` outside the audited allowlist",
        },
        Rule {
            id: "kernel-dispatch",
            summary: "CPU feature detection only in the kernel dispatcher, never per call or in loops",
            include_tests: true,
            scope: &[],
            allow: &[(
                "crates/ann/src/kernel/mod.rs",
                "the dispatcher's one-time OnceLock'd detection — the single place allowed to \
                 ask the CPU what it supports",
            )],
            patterns: &[
                pat(&["is_x86_feature_detected!"]),
                pat(&["is_aarch64_feature_detected!"]),
            ],
            check: Check::Forbid,
            message: "CPU feature detection outside the kernel dispatcher; the macro re-reads \
                      CPUID state and must never sit in a scan loop body — route through \
                      vlite_ann::kernel (detected()/kernels()), which detects once per process",
        },
        Rule {
            id: "atomics-ordering",
            summary: "every `Ordering::Relaxed` carries a `relaxed:` justification comment",
            include_tests: false,
            scope: &[],
            allow: &[],
            patterns: &[pat(&["Ordering::Relaxed"])],
            check: Check::ForbidUnlessMarker {
                marker: "relaxed:",
                window: 6,
            },
            message: "`Ordering::Relaxed` without a `// relaxed: <why no ordering is needed>` \
                      justification within 6 lines",
        },
        Rule {
            id: "lock-hygiene",
            summary: "no poisoning panics on lock acquisition in non-test code",
            include_tests: false,
            scope: &[],
            allow: &[],
            patterns: &[
                pat(&[".lock()", ".unwrap()"]),
                pat(&[".lock()", ".expect("]),
                pat(&[".read()", ".unwrap()"]),
                pat(&[".read()", ".expect("]),
                pat(&[".write()", ".unwrap()"]),
                pat(&[".write()", ".expect("]),
                pat(&[".wait(", ").unwrap()"]),
                pat(&[".wait(", ").expect("]),
            ],
            check: Check::Forbid,
            message: "poisoning panic on lock acquisition; route through the poisoned-lock \
                      recovery helpers so one panicking worker cannot cascade into every path \
                      that shares the lock",
        },
        Rule {
            id: "bounded-queues",
            summary: "no unbounded channels in the serve path without a boundedness argument",
            include_tests: false,
            scope: &["crates/serve/src/"],
            allow: &[],
            patterns: &[pat(&["channel::unbounded"]), pat(&["mpsc::channel("])],
            check: Check::Forbid,
            message: "unbounded channel in the serve path; make it bounded or state the \
                      boundedness argument in a `vlite-allow` suppression",
        },
        Rule {
            id: "panic-paths",
            summary: "no unwrap/expect/panic in the dispatcher, HTTP parser/JSON, or store scan paths",
            include_tests: false,
            scope: &[
                "crates/serve/src/dispatch.rs",
                "crates/serve/src/http/parser.rs",
                "crates/serve/src/http/json.rs",
                "crates/store/src/tiered.rs",
                "crates/store/src/segment.rs",
            ],
            allow: &[],
            patterns: &[
                pat(&[".unwrap()"]),
                pat(&[".expect("]),
                pat(&["panic!("]),
                pat(&["todo!("]),
                pat(&["unimplemented!("]),
            ],
            check: Check::Forbid,
            message: "panic in a hot request path; degrade gracefully or return an error \
                      (a panicking request must never take the process down)",
        },
        Rule {
            id: "stdout-discipline",
            summary: "library code never prints; output flows through the obs plane",
            include_tests: false,
            scope: &["crates/"],
            allow: &[
                (
                    "crates/bench/",
                    "benchmark binaries report results on stdout by design",
                ),
                (
                    "crates/analyze/",
                    "the analyzer CLI reports diagnostics on stdout by design",
                ),
            ],
            patterns: &[
                pat(&["println!("]),
                pat(&["eprintln!("]),
                pat(&["print!("]),
                pat(&["eprint!("]),
                pat(&["dbg!("]),
            ],
            check: Check::Forbid,
            message: "library code must not print; record through the obs plane or return data \
                      to the caller",
        },
    ];
    RULES
}

/// Looks up a rule by id (for suppression validation).
pub fn rule_exists(id: &str) -> bool {
    rules().iter().any(|r| r.id == id)
}
