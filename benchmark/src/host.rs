//! What the benchmark reads about the machine and its own process.

use std::process::Command;

use tc_types::Json;

/// Cores the process may run on; every thread count is capped by this.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the calling thread, and every thread spawned from it afterwards, to
/// the CPU it is running on, so that the reference loop of `refclock` and
/// the work it brackets share that CPU's disturbances. False if the kernel
/// refused; the run then goes on unpinned.
pub fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: plain libc calls; the mask is a live, correctly sized
    // `cpu_set_t` (1024 bits) for the length of the call, and pid 0 names
    // the calling thread.
    unsafe {
        let Ok(cpu) = usize::try_from(sched_getcpu()) else {
            return false;
        };
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word = 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

/// The peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmHWM` of a child of this program that goes through `workload` once
/// (`--rss-probe 1`), with glibc held to one malloc arena, in MiB.
///
/// For the workloads whose work runs on threads the program spawns. There
/// glibc gives each thread the arena it happens to find free, every arena
/// keeps what was freed into it, and the process's own `VmHWM` counts how
/// many arenas took a `System` rather than what the program needs: the same
/// binary read 50 or 96 MiB on `campaign21`, and 278, 323 or 365 on
/// `serve_mix`. One arena reads the same every time (spread 0.003) and
/// moves when the live heap does. The timed samples stay in this process,
/// under the default allocator: one arena under two workers costs time.
pub fn probed_peak_rss_mb(workload: &str, seed: u64) -> Result<f64, String> {
    // The unit tests are not the program; they read their own process.
    if cfg!(test) {
        return Ok(peak_rss_mb());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--rss-probe", "1"])
        .env("MALLOC_ARENA_MAX", "1")
        .output()
        .map_err(|e| format!("cannot start the RSS probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .filter(|_| output.status.success())
        .and_then(|line| line.strip_prefix("peak_rss_mb "))
        .and_then(|mb| mb.parse().ok())
        .ok_or_else(|| {
            format!(
                "the RSS probe of {workload} failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process, live or joined. `/proc/self/stat` counts in clock ticks;
/// Linux fixes `USER_HZ` at 100 on every supported architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block recorded with every result file, so numbers from
/// different machines are never read as a regression.
pub fn host_block() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::Obj(vec![
        ("nproc".to_string(), Json::Num(cores().to_string())),
        ("cpu".to_string(), Json::Str(cpu)),
        (
            "rustc".to_string(),
            Json::Str(command_line("rustc", &["-V"])),
        ),
        (
            "commit".to_string(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
