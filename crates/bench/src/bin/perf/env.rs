//! What the benchmark reads from the machine: process CPU time and peak
//! memory from `/proc`, and the provenance block written beside the
//! numbers. Everything degrades to "unknown"/0 off Linux.

use vlite_serve::http::json::Json;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux port this runs on).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has consumed.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: utime and stime are the 14th and 15th overall.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let mut fields = rest.split(' ').skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's output, or "unknown" (the driver's checkout
/// is not a git repository, and `rustc` may not be on the path).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The environment + provenance block of `perf.json`.
pub fn provenance(seed: u64) -> Json {
    Json::Obj(vec![
        (
            "git_sha".into(),
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("nproc".into(), Json::Num(nproc() as f64)),
        (
            "kernel".into(),
            Json::Str(vlite_ann::kernel::active().name().into()),
        ),
        (
            "rustc".into(),
            Json::Str(first_line_of("rustc", &["--version"])),
        ),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn procfs_readings_are_live() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() >= before + 0.02);
        assert!(peak_rss_mb() > 1.0);
    }
}
