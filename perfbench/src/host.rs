//! Host facts read from procfs: process CPU time, peak RSS, system-wide
//! idle and steal ticks, and a fixed single-threaded reference loop.
//! Together they let a reader tell a slow build from a noisy neighbour.

use std::time::Instant;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`), fixed at
/// 100 on every Linux ABI this runs on.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds this process has used, all threads included.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // Field 2 (comm) may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(14) + tick(15)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// System-wide `(idle, steal)` ticks from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn idle_steal_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    (at(3), at(7))
}

/// Milliseconds a fixed integer/float loop takes on one thread (median of
/// three): a host-speed yardstick that no change to this repository moves.
pub fn reference_loop_ms() -> f64 {
    let once = || {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0.0f64;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.mul_add(0.999_999, (x >> 40) as f64);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut v = [once(), once(), once()];
    v.sort_by(f64::total_cmp);
    v[1]
}

/// Host facts over one run, printed beside (not among) the metrics.
#[derive(Debug, Clone)]
pub struct HostFacts {
    started: (u64, u64),
    reference_ms: f64,
}

impl HostFacts {
    /// Time the reference loop and start the idle/steal window.
    pub fn start() -> HostFacts {
        let reference_ms = reference_loop_ms();
        HostFacts {
            started: idle_steal_ticks(),
            reference_ms,
        }
    }

    /// One line: `host: nproc=… idle_ticks=… steal_ticks=… ref_loop_ms=…`.
    pub fn line(&self) -> String {
        let (idle, steal) = idle_steal_ticks();
        format!(
            "host: nproc={} idle_ticks={} steal_ticks={} ref_loop_ms={:.3}",
            nproc(),
            idle.saturating_sub(self.started.0),
            steal.saturating_sub(self.started.1),
            self.reference_ms
        )
    }
}
