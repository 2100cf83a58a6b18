//! What the harness reads from the host: CPU time, peak memory, load,
//! cache size, and the fingerprint printed with every run.

use std::fs;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, including
/// threads that have already exited (`/proc/self/stat` fields 14, 15).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, so field 14 is index 11 from there.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("cpu ticks");
    (ticks(11) + ticks(12)) / CLK_TCK
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// 1-minute load average, so a noisy neighbour shows in the log.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size of the largest cache `cpu0` reports, bytes; `None` where sysfs
/// does not expose the cache hierarchy.
pub fn llc_bytes() -> Option<u64> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1u64 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            b'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        Some(digits.parse::<u64>().ok()? * mult)
    })
    .max()
}

/// `MemAvailable`, bytes.
pub fn mem_available_bytes() -> Option<u64> {
    let meminfo = fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? << 10)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One line naming the machine the numbers were taken on.
pub fn fingerprint() -> String {
    format!(
        "host: nproc={} cpu=\"{}\" llc={} rustc=\"{}\"",
        nproc(),
        cpu_model(),
        llc_bytes().map_or("unknown".into(), |b| format!("{} KiB", b >> 10)),
        rustc_version()
    )
}

/// Every variable that would switch the engine or the thread count
/// away from the default. The benchmark records them and refuses to
/// measure when any is set, so all numbers are the default engine.
pub fn engine_env_overrides() -> Vec<(String, String)> {
    let mut found: Vec<_> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CA_") || k == "RAYON_NUM_THREADS")
        .collect();
    found.sort();
    found
}
