//! Process and host facts stamped on every result record.

use std::fmt::Write as _;

/// A `/proc/self/status` field in MB (Linux reports kB); 0 elsewhere.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set (VmRSS), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Cores available to this process.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the working directory, read from `.git` when the
/// benchmark runs inside a git checkout; `None` otherwise.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The stamp fields as JSON members (no surrounding braces).
pub fn stamp_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let simd_env = std::env::var("DISTTGL_SIMD").ok();
    format!(
        "\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"host_cores\":{},\"simd_active\":{},\"DISTTGL_SIMD\":{},\"git_rev\":{}",
        json_str(workload),
        cores(),
        disttgl_tensor::kernels::simd_active(),
        simd_env.as_deref().map_or("null".into(), json_str),
        git_rev().as_deref().map_or("null".into(), json_str),
    )
}
