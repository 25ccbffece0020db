//! What the benchmark reads from the host: process CPU time, peak RSS, load
//! average, thread count, git revision — all from `/proc` (Linux only,
//! like the Unix-socket daemon it measures).

use std::path::{Path, PathBuf};
use std::time::Instant;

/// `sysconf(_SC_CLK_TCK)`: fixed at 100 on every Linux ABI Rust targets.
const CLK_TCK: f64 = 100.0;

/// Process user+sys CPU seconds so far (all threads, dead ones included).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may contain spaces; everything after the closing paren
    // is space-separated, starting at field 3. utime/stime are fields 14/15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("tick count");
    (ticks(14) + ticks(15)) / CLK_TCK
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// 1-minute load average.
pub fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `git rev-parse HEAD`, or `unknown` outside a repository (the PR driver
/// benchmarks an exported tree).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Which dependency graph this binary was built against, as `bench.sh`
/// exports it; a plain `cargo run` can only have resolved the real crates.
pub fn deps() -> String {
    std::env::var("PERF_DEPS").unwrap_or_else(|_| "registry".to_string())
}

/// Wall + CPU stopwatch around one measured call.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// `(wall seconds, process CPU seconds)` since `start`.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu,
        )
    }
}

/// Where results and scratch files go: `$CARGO_TARGET_DIR/perf` (the PR
/// driver points that inside its checkout) or `target/perf`, expressed
/// relative to the working directory when it lies below it — Unix socket
/// paths are capped at ~100 bytes, and a relative one stays short wherever
/// the checkout lives.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let dir = base.join("perf");
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// A scratch directory under [`out_dir`], emptied on creation and removed
/// on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = out_dir()
            .join("tmp")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
