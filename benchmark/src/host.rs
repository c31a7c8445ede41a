//! What the run ran on: pool width (rule R1), host fingerprint, the
//! calibration sentinel (rule R4) and peak memory.

use crate::json::Json;
use matrox::linalg::{gemm_seq, GemmOp, KernelDispatch, Matrix};
use std::time::Instant;

/// Rule R1: pin the global pool to one worker before its first use and
/// return the width the pool then reports.  A second vCPU of a shared
/// microVM is not ours to time with; see README.md for the measurements.
pub fn pin_pool_width_1() -> usize {
    // Err means the pool already started; the returned width then shows it.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();
    rayon::current_num_threads()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `L1d 32K, L2 2048K, ...` of cpu0, as sysfs reports them.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let size = read(&format!("{dir}/size"));
        if size.trim().is_empty() {
            continue;
        }
        let level = read(&format!("{dir}/level"));
        let kind = match read(&format!("{dir}/type")).trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{} {}", level.trim(), kind, size.trim()));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(", ")
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint(pool_width: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("pool_width", Json::Num(pool_width as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("caches", Json::str(cache_sizes())),
        ("rustc", Json::str(rustc_version())),
        (
            "kernel_dispatch",
            Json::str(KernelDispatch::global().name()),
        ),
    ])
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rule R4: a fixed sequential GEMM loop, eight 192-cubed products over
/// L2-resident matrices, about 10 ms.  It does not allocate, so its time
/// moves only with the host.
pub struct Sentinel {
    a: Matrix,
    b: Matrix,
    c: Matrix,
}

impl Sentinel {
    pub fn new() -> Sentinel {
        let fill =
            |r: usize, c: usize| Matrix::from_fn(r, c, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        Sentinel {
            a: fill(192, 192),
            b: fill(192, 192),
            c: Matrix::zeros(192, 192),
        }
    }

    /// Seconds one pass of the loop takes now.
    pub fn read(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..8 {
            gemm_seq(
                1.0,
                &self.a,
                GemmOp::NoTrans,
                &self.b,
                GemmOp::NoTrans,
                0.0,
                &mut self.c,
            );
        }
        std::hint::black_box(self.c.get(0, 0));
        t0.elapsed().as_secs_f64()
    }
}
