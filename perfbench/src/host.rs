//! Host description for the run manifest, and the floor probe the
//! per-layer metrics are scored against.
//!
//! Everything here is read from the CPU itself (`cpuid`) or from the
//! process, so the benchmark reads no file outside its checkout.

use std::hint::black_box;
use std::time::Instant;

/// One cache level as reported by `cpuid` leaf 4.
#[derive(Clone, Debug)]
pub struct Cache {
    pub level: u32,
    pub kind: &'static str,
    pub bytes: usize,
}

#[derive(Clone, Debug)]
pub struct HostInfo {
    pub cpu: String,
    pub nproc: usize,
    pub caches: Vec<Cache>,
}

impl HostInfo {
    pub fn detect() -> Self {
        let (cpu, caches) = cpuid_info();
        HostInfo {
            cpu,
            nproc: nproc(),
            caches,
        }
    }

    /// Last-level cache size in bytes (largest data/unified level).
    pub fn llc_bytes(&self) -> Option<usize> {
        self.caches
            .iter()
            .filter(|c| c.kind != "instruction")
            .max_by_key(|c| c.level)
            .map(|c| c.bytes)
    }

    pub fn caches_compact(&self) -> String {
        let parts: Vec<String> = self
            .caches
            .iter()
            .map(|c| format!("L{}{}={}KiB", c.level, &c.kind[..1], c.bytes / 1024))
            .collect();
        parts.join(",")
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)]
fn cpuid_info() -> (String, Vec<Cache>) {
    use std::arch::x86_64::__cpuid_count;
    // SAFETY: `cpuid` exists on every x86_64 CPU; leaves above the
    // reported maximum are not queried.
    let max_ext = unsafe { __cpuid_count(0x8000_0000, 0) }.eax;
    let mut brand = Vec::new();
    if max_ext >= 0x8000_0004 {
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            // SAFETY: leaf checked against the maximum extended leaf.
            let r = unsafe { __cpuid_count(leaf, 0) };
            for w in [r.eax, r.ebx, r.ecx, r.edx] {
                brand.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    let cpu = String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string();
    let mut caches = Vec::new();
    // SAFETY: leaf 0 is always valid.
    let max_std = unsafe { __cpuid_count(0, 0) }.eax;
    if max_std >= 4 {
        for sub in 0..16 {
            // SAFETY: leaf 4 checked against the maximum standard leaf.
            let r = unsafe { __cpuid_count(4, sub) };
            let kind = match r.eax & 0x1f {
                0 => break,
                1 => "data",
                2 => "instruction",
                _ => "unified",
            };
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            caches.push(Cache {
                level: (r.eax >> 5) & 0x7,
                kind,
                bytes: ways * parts * line * sets,
            });
        }
    }
    (
        if cpu.is_empty() {
            "unknown".into()
        } else {
            cpu
        },
        caches,
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpuid_info() -> (String, Vec<Cache>) {
    ("unknown".into(), Vec::new())
}

/// Measured host floors: sustained copy bandwidth and FMA throughput,
/// both with `threads` threads (the parallel backend's width).
#[derive(Clone, Debug)]
pub struct Floor {
    pub copy_gbs: f64,
    pub fma_gflops: f64,
    pub array_bytes: usize,
    pub threads: usize,
}

impl Floor {
    /// Attainable rate (GFLOP/s) at `flops_per_byte`: the lower of the
    /// FMA floor and bandwidth times intensity.
    pub fn roof_gflops(&self, flops_per_byte: f64) -> f64 {
        self.fma_gflops.min(self.copy_gbs * flops_per_byte)
    }
}

/// Probe the floors. Each copy array is `array_bytes` long (callers
/// pass at least 4× the last-level cache); a copy moves 2× that.
pub fn probe_floor(array_bytes: usize, threads: usize) -> Floor {
    let len = array_bytes / 8;
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (d, sr) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(sr));
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&mut dst);
    }
    let copy_gbs = 2.0 * (len * 8) as f64 / best / 1e9;
    drop((src, dst));

    const ACC: usize = 64;
    const ITERS: usize = 4_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut acc = [1.0f64 + t as f64; ACC];
                    let m = black_box(0.999_999);
                    let c = black_box(1e-9);
                    for _ in 0..ITERS {
                        for a in acc.iter_mut() {
                            *a = a.mul_add(m, c);
                        }
                    }
                    black_box(acc);
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let fma_gflops = (2 * ACC * ITERS * threads) as f64 / best / 1e9;
    Floor {
        copy_gbs,
        fma_gflops,
        array_bytes: len * 8,
        threads,
    }
}

/// `rustc --version` captured at build time.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Commit of the checkout when it is a git work tree, else "unknown".
/// Only `./.git` is consulted, so nothing outside the checkout is read.
pub fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roof_is_min_of_compute_and_bandwidth() {
        let f = Floor {
            copy_gbs: 10.0,
            fma_gflops: 100.0,
            array_bytes: 0,
            threads: 1,
        };
        assert_eq!(f.roof_gflops(0.5), 5.0);
        assert_eq!(f.roof_gflops(50.0), 100.0);
    }
}
