//! Runtime selection of the compiled variants of the lane kernels.
//!
//! The lane-parallel kernels ([`crate::batch`]'s AC solve and
//! [`crate::mosfet::vgs_for_current_lanes`]) are each compiled three times —
//! generic, AVX2 and AVX-512F via `#[target_feature]` — from one
//! `#[inline(always)]` body. Every variant runs the same per-lane IEEE-754
//! operation sequence (Rust never contracts `a*b + c` into an FMA nor
//! reassociates floats), so the choice changes throughput, never values.

/// Number of independent lanes a kernel processes together.
pub const LANES: usize = 8;

/// Which compiled variant of a lane kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// AVX-512F build.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 build.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Portable build, runnable everywhere.
    Generic,
}

impl Kernel {
    /// The widest variant the running CPU supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Kernel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        Kernel::Generic
    }

    /// Whether the running CPU can execute this variant.
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Kernel::Generic => true,
        }
    }

    /// Every variant the running CPU can execute, the generic one first.
    pub fn available() -> Vec<Self> {
        let all = [
            Kernel::Generic,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512,
        ];
        all.into_iter().filter(|k| k.is_supported()).collect()
    }
}
