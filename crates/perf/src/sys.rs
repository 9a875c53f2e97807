//! Process-level facts the report carries: peak memory and host CPUs.

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` off
/// Linux. One OS process runs one workload, so the peak is per workload.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, every thread
/// counted, from `/proc/self/stat`; 0 off Linux. The kernel reports clock
/// ticks, a hundred a second, which is fine over a window of seconds.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name, field 2, may hold spaces; fields 14 and 15 (utime,
    // stime) are the 12th and 13th after its closing parenthesis.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_S
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_and_cpu_time_read_from_proc() {
        assert!(super::peak_rss_mb().unwrap() > 0.5);
        assert!(super::nproc() >= 1);
        let before = super::cpu_seconds();
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            std::hint::black_box(t0.elapsed());
        }
        let used = super::cpu_seconds() - before;
        assert!((0.03..0.2).contains(&used), "{used}");
    }
}
