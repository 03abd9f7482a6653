//! Provenance and host-noise evidence stamped on every result.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, UNIX_EPOCH};

/// CPU steal time so far (USER_HZ ticks, summed over all CPUs), from
/// the aggregate `cpu` line of `/proc/stat`; `None` where unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn simd_backend() -> &'static str {
    if mga_nn::simd::simd_enabled() {
        "avx2"
    } else {
        "scalar"
    }
}

/// The source revision. With a `.git` directory in the working
/// directory, `git describe` names the commit and marks uncommitted
/// changes with `-dirty`; without git it is resolved from `.git`
/// directly, and a source export (no `.git`) reads `unknown`.
pub fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    let described = Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=40",
            "--exclude=*",
        ])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    described.unwrap_or_else(head_rev)
}

fn head_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The running binary's size and modification time, so records of
/// different builds of the same revision (or of a tree without git)
/// can be told apart.
pub fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| {
            let mtime = m.modified()?.duration_since(UNIX_EPOCH).unwrap_or_default();
            Ok(format!(
                "{}b@{}.{:09}",
                m.len(),
                mtime.as_secs(),
                mtime.subsec_nanos()
            ))
        })
        .unwrap_or_else(|_| "unknown".into())
}

/// Largest gap between consecutive iterations of the benchmark's measured
/// loops. A host stall shows up here even when medians hide it.
#[derive(Default)]
pub struct GapMeter {
    last: Option<Instant>,
    pub max_ns: u64,
}

impl GapMeter {
    /// Start a new measured loop (the gap across loops is not counted).
    pub fn restart(&mut self) {
        self.last = None;
    }

    pub fn beat(&mut self) {
        let now = Instant::now();
        if let Some(prev) = self.last {
            self.max_ns = self.max_ns.max((now - prev).as_nanos() as u64);
        }
        self.last = Some(now);
    }
}
