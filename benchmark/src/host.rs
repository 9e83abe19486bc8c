//! What the numbers were measured on: the host fingerprint stored beside
//! every result set, and the process's peak resident memory.

use mlec_runner::Json;
use std::process::Command;

fn first_line_after(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `VmHWM` of this process in MiB: the most memory it has had resident.
pub fn peak_rss_mib() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kib: f64 = first_line_after(&status, "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Size of the last-level cache as the kernel reports it for CPU 0.
fn llc_size() -> Option<String> {
    (0..8)
        .rev()
        .find_map(|i| read(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .map(|s| s.trim().to_string())
}

/// First line a tool prints, or `unknown` when it is absent or fails (the
/// benchmark also runs in checkouts that are not git repositories).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint of a result set.
pub fn fingerprint(seeds: &[u64], runs_per_workload: usize, seconds: f64) -> Json {
    let cpu = read("/proc/cpuinfo")
        .and_then(|c| first_line_after(&c, "model name"))
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::U64(available_threads() as u64)),
        (
            "llc_size",
            Json::Str(llc_size().unwrap_or_else(|| "unknown".to_string())),
        ),
        (
            "gf_kernel",
            Json::Str(mlec_gf::simd::kernel_name().to_string()),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::U64(s)).collect()),
        ),
        ("runs_per_workload", Json::U64(runs_per_workload as u64)),
        ("seconds_per_run", Json::F64(seconds)),
    ])
}
