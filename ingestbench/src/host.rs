//! Host facts and process accounting read from `/proc` (Linux).

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 on Linux regardless of the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// `utime + stime` from a `/proc/.../stat` line. The command name (field 2)
/// may contain spaces, so fields are counted after its closing parenthesis.
fn stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // after ")" come state (field 3) ... utime is field 14, stime field 15
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, including threads that already exited.
pub fn process_cpu() -> Duration {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu(&s))
        .unwrap_or_default()
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu(&s))
        .unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time counters from `/proc/stat`: (steal, total) ticks.
/// Steal is time the hypervisor gave this machine's CPUs to others.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "42 (lsm compactor) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(stat_cpu(line), Some(Duration::from_secs(3)));
    }
}
