//! Measurement helpers: percentiles, process CPU time, peak resident set
//! and the run envelope.

use std::path::Path;

/// Nearest-rank percentile (`p` in `0..=1`) of `samples`, which it sorts;
/// 0 when there are none.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), p) - 1]
}

/// How many samples lie beyond the nearest-rank `p` percentile.
pub fn beyond(len: usize, p: f64) -> usize {
    if len == 0 {
        0
    } else {
        len - rank(len, p)
    }
}

fn rank(len: usize, p: f64) -> usize {
    ((len as f64 * p).ceil() as usize).clamp(1, len)
}

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ, fixed at
/// 100 on every Linux architecture).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds this process has used, over all its
/// threads (10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host CPU's model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_prefix("model name")
                .and_then(|v| v.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // `id parent dev root mountpoint opts [tags] - fstype source opts`
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split_whitespace().nth(4), tail.split_whitespace().next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a metric value as JSON: every digit, and `0` in place of a
/// non-finite number (JSON has none).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
