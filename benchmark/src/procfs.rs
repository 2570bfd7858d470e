//! `/proc` readers: process CPU time and peak resident set size.
//!
//! The workspace is offline and std-only, so there is no `libc` to ask;
//! both numbers come from the text files the kernel already maintains.

use std::fs;

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s utime/stime.
/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux this repo targets; std
/// offers no way to query it.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat carries utime and stime")
    };
    (ticks() + ticks()) / CLK_TCK
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status carries VmHWM in kB");
    kb / 1024.0
}
