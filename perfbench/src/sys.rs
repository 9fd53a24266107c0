//! Peak resident memory of this process, from Linux procfs.

use std::fs;

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the kernel, then resets the kernel's
/// resident-set high-water mark to the current resident set, so the
/// next [`peak_rss_mb`] covers only what runs after this call and does
/// not depend on how much freed memory earlier work left resident.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` only releases free pages; it touches no
    // live allocation and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting peak RSS via /proc/self/clear_refs: {e}"))
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   36864 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(36_864));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn reads_a_positive_peak_after_a_reset() {
        reset_peak_rss().unwrap();
        let ballast = std::hint::black_box(vec![1u8; 8 << 20]);
        let peak = peak_rss_mb().unwrap();
        assert!(peak >= 8.0, "8 MiB touched, peak {peak} MiB");
        drop(std::hint::black_box(ballast));
    }
}
