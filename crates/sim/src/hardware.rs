//! Hardware catalog mirroring the paper's testbed.
//!
//! The paper's two nodes (§V-A "System Configuration"):
//!
//! - **L40S node** — 8× NVIDIA L40S (48 GB GDDR6) + dual Xeon Gold 6426Y
//!   (32 cores total); used for Llama3-8B.
//! - **H100 node** — 8× NVIDIA H100 (80 GB HBM3) + Xeon Platinum 8462Y+
//!   (64 cores); used for Qwen3-32B and Llama3-70B.
//!
//! The numeric specs below are public datasheet values; the serving cost
//! models consume only bandwidth, compute-rate and capacity ratios, so small
//! datasheet deviations do not change who-wins/crossover shapes.

use serde::{Deserialize, Serialize};

/// Static description of a GPU device.
///
/// # Examples
///
/// ```
/// let h100 = vlite_sim::devices::h100();
/// assert_eq!(h100.mem_bytes, 80 * (1 << 30));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"H100-SXM"`.
    pub name: String,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Device memory bandwidth in bytes per second.
    pub mem_bw: f64,
    /// Dense FP16/BF16 tensor throughput in FLOP/s.
    pub fp16_flops: f64,
    /// Number of streaming multiprocessors (kernel-scheduling granularity
    /// for the retrieval-occupancy contention model).
    pub sms: u32,
    /// Host-to-device transfer bandwidth in bytes per second (PCIe),
    /// used for index-shard loading time (Fig. 9).
    pub h2d_bw: f64,
}

/// Static description of a host CPU (one NUMA node / socket pair treated as
/// a uniform pool, as the paper does).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"Xeon-8462Y"`.
    pub name: String,
    /// Physical core count available to the retriever.
    pub cores: u32,
    /// f32 lanes per SIMD vector unit (AVX-512 ⇒ 16), the fast-scan
    /// parallelism factor.
    pub simd_lanes: u32,
    /// Sustained all-core frequency in Hz.
    pub freq_hz: f64,
    /// Aggregate memory bandwidth in bytes per second.
    pub mem_bw: f64,
}

impl CpuSpec {
    /// Returns a copy scaled to `cores`, with memory bandwidth scaled
    /// proportionally — the paper's Fig. 17 provisioning policy ("allocate
    /// additional CPU cores as more GPUs are added").
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores(&self, cores: u32) -> CpuSpec {
        assert!(cores > 0, "CPU must have at least one core");
        let scale = cores as f64 / self.cores as f64;
        CpuSpec {
            name: format!("{}-{}c", self.name, cores),
            cores,
            simd_lanes: self.simd_lanes,
            freq_hz: self.freq_hz,
            mem_bw: self.mem_bw * scale,
        }
    }
}

/// Constructors for the concrete devices in the paper's testbed.
pub mod devices {
    use super::*;

    /// NVIDIA H100 SXM5: 80 GB HBM3, 3.35 TB/s, 989 TFLOPS dense FP16,
    /// 132 SMs, PCIe Gen5 x16 host link.
    pub fn h100() -> GpuSpec {
        GpuSpec {
            name: "H100-SXM".to_string(),
            mem_bytes: 80 * (1u64 << 30),
            mem_bw: 3.35e12,
            fp16_flops: 989e12,
            sms: 132,
            h2d_bw: 64e9,
        }
    }

    /// NVIDIA L40S: 48 GB GDDR6, 864 GB/s, 362 TFLOPS dense FP16, 142 SMs,
    /// PCIe Gen4 x16 host link.
    pub fn l40s() -> GpuSpec {
        GpuSpec {
            name: "L40S".to_string(),
            mem_bytes: 48 * (1u64 << 30),
            mem_bw: 864e9,
            fp16_flops: 362e12,
            sms: 142,
            h2d_bw: 32e9,
        }
    }

    /// Dual Xeon Platinum 8462Y+ (64 cores, AVX-512, ~614 GB/s DDR5) —
    /// the H100 node's host CPU.
    pub fn xeon_8462y() -> CpuSpec {
        CpuSpec {
            name: "Xeon-8462Y".to_string(),
            cores: 64,
            simd_lanes: 16,
            freq_hz: 2.8e9,
            mem_bw: 614e9,
        }
    }

    /// Dual Xeon Gold 6426Y (32 cores, AVX-512, ~307 GB/s DDR5) — the L40S
    /// node's host CPU.
    pub fn xeon_6426y() -> CpuSpec {
        CpuSpec {
            name: "Xeon-6426Y".to_string(),
            cores: 32,
            simd_lanes: 16,
            freq_hz: 2.5e9,
            mem_bw: 307e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::devices::*;

    #[test]
    fn h100_is_faster_and_larger_than_l40s() {
        let (h, l) = (h100(), l40s());
        assert!(h.mem_bytes > l.mem_bytes);
        assert!(h.mem_bw > l.mem_bw);
        assert!(h.fp16_flops > l.fp16_flops);
    }

    #[test]
    fn cpu_core_scaling_scales_bandwidth() {
        let full = xeon_8462y();
        let half = full.with_cores(32);
        assert_eq!(half.cores, 32);
        assert!((half.mem_bw - full.mem_bw / 2.0).abs() < 1.0);
        assert_eq!(half.simd_lanes, full.simd_lanes);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_cpu_rejected() {
        xeon_8462y().with_cores(0);
    }
}
