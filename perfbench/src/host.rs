//! Host diagnostics reported next to the metrics, so an outlier run
//! can be attributed to the host rather than the program.

use std::path::Path;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets `VmHWM` to the current resident set, after handing freed
/// heap back to the kernel, so a later [`peak_rss_mb`] covers only what
/// is live now and what runs from here on (and later allocations get
/// fresh pages). The reset does nothing where `/proc/self/clear_refs`
/// is absent.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim only returns free heap pages to
        // the kernel; it takes no pointers and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn status_kb(field: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time (user + system) of every thread of this process so far,
/// seconds, at the kernel's full resolution.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux); clock_gettime only writes it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the current counters (zeros where `/proc/stat` is absent).
    pub fn read() -> Self {
        let Ok(s) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = s.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user/nice.
        let total = v.iter().take(8).sum();
        CpuTimes {
            steal: v.get(7).copied().unwrap_or(0),
            total,
        }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let dt = self.total.saturating_sub(earlier.total);
        if dt == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / dt as f64
    }
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
