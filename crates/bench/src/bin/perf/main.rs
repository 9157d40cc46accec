//! `perf` — the repository's benchmark. Four named workloads against the
//! real serving runtime, eleven end-to-end metrics, and (traced) a
//! per-layer ledger that sums to the end-to-end figure. See `README.md`
//! beside this file for the glossary and the rules.
//!
//! ```text
//! perf [--seed N] [--seconds S]            every workload, untraced → results/perf/perf.json
//! perf --trace [--seed N] [--seconds S]    every workload, traced   → results/perf/perf_trace.json
//! perf --workload W --seed N --seconds S --trace 0|1
//!                                          one workload in this process; the last
//!                                          line of stdout is the driver's result
//! perf compare A.json B.json               B against A under the bounds
//! ```
//!
//! Without `--workload`, each workload runs in a child process of its own
//! so that peak memory, CPU time and set-up time never carry over from
//! the workload before.

mod check;
mod compare;
mod drive;
mod env;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vlite_serve::http::json::Json;

use workload::Scale;

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// figure as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

/// Everything the benchmark writes lands here, inside the checkout.
const OUT_DIR: &str = "results/perf";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let need = || value.ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => parsed.workload = Some(need()?.to_string()),
            "--seed" => parsed.seed = need()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                parsed.seconds = need()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match value {
                Some("0") => parsed.traced = false,
                Some("1") => parsed.traced = true,
                _ => {
                    parsed.traced = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare_files(Path::new(a), Path::new(b)),
            _ => usage("compare needs two files"),
        };
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => every_workload(&args),
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perf: {message}");
    eprintln!("usage: perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]]");
    eprintln!("       perf compare A.json B.json");
    ExitCode::from(2)
}

fn result_path(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "run" };
    Path::new(OUT_DIR).join(format!("{kind}_{workload}.json"))
}

/// Runs one workload in this process, prints its metrics and writes its
/// JSON. A run that fails an output check exits non-zero and emits no
/// numbers. A run whose open-loop generator ran late is flagged in the
/// JSON and on stderr but still reports and exits 0: whoever drives single
/// workloads repeats them and takes medians, and a busy neighbour on a
/// shared host must not cost them a whole set. `perf` over every workload
/// turns the flag into its exit code.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = workload::by_name(name) else {
        return usage(&format!("unknown workload {name}"));
    };
    // The server puts its ephemeral segment files under
    // `std::env::temp_dir()`; point that inside the checkout, before any
    // thread exists, so that nothing is written outside it.
    let tmp = Path::new(OUT_DIR).join("tmp");
    if let Err(err) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {err}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", std::fs::canonicalize(&tmp).unwrap_or(tmp.clone()));

    let scale = Scale::full();
    let outcome = run::run(&run::Plan {
        workload,
        scale: &scale,
        seed: args.seed,
        seconds: args.seconds,
        warmup_s: run::WARMUP_S,
        traced: args.traced,
        trace_path: Some(Path::new(OUT_DIR).join(format!("trace_{name}.json"))),
    });
    // The segment files are ephemeral; only the empty directory is left.
    let _ = std::fs::remove_dir_all(&tmp);

    let mut entry = report::outcome_json(&outcome, &scale);
    if !outcome.is_valid() {
        if let Json::Obj(fields) = &mut entry {
            fields.retain(|(key, _)| key != "metrics" && key != "budget");
        }
    }
    if let Err(err) = std::fs::write(result_path(name, args.traced), entry.render()) {
        eprintln!("cannot write the result file: {err}");
        return ExitCode::FAILURE;
    }
    if outcome.invalid_generator() {
        eprintln!(
            "{name}: invalid_generator in repetitions {:?}",
            outcome.late_reps
        );
    }
    if !outcome.is_valid() {
        for violation in &outcome.violations {
            eprintln!("{name}: {violation}");
        }
        return ExitCode::FAILURE;
    }
    report::print_outcome(&outcome);
    if let Some(budget) = &outcome.budget {
        report::print_budget(name, &outcome.span_rows, budget);
    }
    println!("{}", report::contract_line(&outcome));
    ExitCode::SUCCESS
}

/// Runs every workload, each in a child process, and merges their result
/// files into one document.
fn every_workload(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot find this executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut entries = Vec::new();
    let mut all_valid = true;
    for workload in &workload::ALL {
        eprintln!("perf: running {} …", workload.name);
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let ok = match child {
            Ok(output) => {
                // Everything but the driver's result line.
                let stdout = String::from_utf8_lossy(&output.stdout);
                let table: Vec<&str> = stdout.lines().collect();
                println!("{}", table[..table.len().saturating_sub(1)].join("\n"));
                output.status.success()
            }
            Err(err) => {
                eprintln!("cannot start the child process: {err}");
                false
            }
        };
        let entry = std::fs::read_to_string(result_path(workload.name, args.traced))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .filter(|_| ok)
            .unwrap_or_else(|| Json::Obj(vec![("valid".into(), Json::Bool(false))]));
        let late = entry.get("invalid_generator") == Some(&Json::Bool(true));
        all_valid &= ok && !late;
        entries.push((workload.name.to_string(), entry));
    }
    let merged = Json::Obj(vec![
        ("env".into(), env::provenance(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("warmup_s".into(), Json::Num(run::WARMUP_S)),
        ("traced".into(), Json::Bool(args.traced)),
        ("workloads".into(), Json::Obj(entries)),
    ]);
    let path = Path::new(OUT_DIR).join(if args.traced {
        "perf_trace.json"
    } else {
        "perf.json"
    });
    if let Err(err) = std::fs::write(&path, merged.render()) {
        eprintln!("cannot write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", path.display());
    if all_valid {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: at least one workload was invalid or ran on a late generator");
        ExitCode::FAILURE
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|err| err.to_string())
            .and_then(|text| Json::parse(&text).map_err(|err| err.to_string()))
            .map_err(|err| eprintln!("{}: {err}", path.display()))
    };
    let (Ok(a), Ok(b)) = (load(a), load(b)) else {
        return ExitCode::from(2);
    };
    let rows = compare::rows(&a, &b);
    if rows.is_empty() {
        eprintln!("the two files share no workload and metric");
        return ExitCode::from(2);
    }
    compare::print(&rows);
    if compare::regressed(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "paper_open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("paper_open"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, false));
        assert!(args(&["--trace", "1"]).unwrap().traced);
        // A bare `--trace` is the traced run, also ahead of another flag.
        let bare = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(bare.traced && bare.seed == 3);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
