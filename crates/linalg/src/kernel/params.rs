//! Cache-parameter queries for blocking decisions.
//!
//! The forward question the kernel layer asks at startup: *given this cache
//! hierarchy, how should a packed GEMM block its operands?*  The Goto/BLIS
//! sizing rules every tuned BLAS applies are encoded once here, next to the
//! microkernel they size the pack buffers of.  The AVX2 arm reads any
//! product whose operands fit those buffers in place, so the same sizes
//! also decide which products are packed at all.
//!
//! The derived blocking factors only affect *performance*: the microkernel
//! contract (see the [kernel-layer docs](crate::kernel)) guarantees that
//! every output element accumulates its `k` products in storage order
//! regardless of `mc`/`kc`/`nc`, so two hosts with different cache sizes
//! still produce bitwise-identical results for the same kernel selection.

/// Description of the per-core cache hierarchy used to size pack buffers:
/// only capacities matter for blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// L1 data-cache capacity in bytes (per core).
    pub l1_bytes: usize,
    /// Private L2 capacity in bytes (per core).
    pub l2_bytes: usize,
}

impl CacheParams {
    /// The workspace's default machine model: 32 KiB L1d + 512 KiB L2 per
    /// core — the Haswell-class testbed of the paper's Section 4.1, and a
    /// conservative fit for every x86 server since.
    pub fn haswell_like() -> Self {
        CacheParams {
            l1_bytes: 32 * 1024,
            l2_bytes: 512 * 1024,
        }
    }
}

impl Default for CacheParams {
    fn default() -> Self {
        Self::haswell_like()
    }
}

/// Blocking factors for a packed, register-blocked GEMM
/// (`C[mc x nc] += A[mc x kc] * B[kc x nc]`, microkernel tile `mr x nr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Rows of the packed `A` block (multiple of the microkernel's `mr`).
    pub mc: usize,
    /// Depth of the packed `A`/`B` panels.
    pub kc: usize,
    /// Columns of the packed `B` block (multiple of the microkernel's `nr`).
    pub nc: usize,
}

impl CacheParams {
    /// Goto-style blocking for an `mr x nr` microkernel over `elem_bytes`
    /// elements:
    ///
    /// * `kc` — sized so one `kc x nr` packed `B` panel plus one `mr x kc`
    ///   packed `A` panel occupy at most half of L1 (the other half absorbs
    ///   the `C` tile and stack traffic);
    /// * `mc` — sized so the whole packed `mc x kc` `A` block fills at most
    ///   half of L2, leaving room for the streamed `B` panel;
    /// * `nc` — sized like `mc` but in columns, bounding the packed `B`
    ///   block to half of L2 (this workspace has no per-core L3 model, and
    ///   the executor's RHS panels are narrow anyway).
    ///
    /// All three are clamped to sane floors so degenerate cache descriptions
    /// still yield a runnable (if slow) blocking.
    pub fn gemm_blocking(&self, elem_bytes: usize, mr: usize, nr: usize) -> GemmBlocking {
        assert!(elem_bytes > 0 && mr > 0 && nr > 0);
        let kc_raw = self.l1_bytes / 2 / (elem_bytes * (mr + nr));
        let kc = (kc_raw - kc_raw % 4).clamp(16, 512);
        let half_l2_rows = self.l2_bytes / 2 / (elem_bytes * kc);
        let mc = ((half_l2_rows - half_l2_rows % mr).max(mr)).min(4096);
        let nc = ((half_l2_rows - half_l2_rows % nr).max(nr)).min(4096);
        GemmBlocking { mc, kc, nc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_blocking_is_reasonable_for_f64_4x8() {
        let blk = CacheParams::haswell_like().gemm_blocking(8, 4, 8);
        // kc x (mr + nr) doubles fit in half of L1.
        assert!(blk.kc * (4 + 8) * 8 <= 16 * 1024);
        // The packed A block fits in half of L2.
        assert!(blk.mc * blk.kc * 8 <= 256 * 1024);
        assert_eq!(blk.mc % 4, 0);
        assert_eq!(blk.nc % 8, 0);
        // Deep enough to amortize the C tile round-trips.
        assert!(blk.kc >= 64, "kc = {}", blk.kc);
    }

    #[test]
    fn tiny_caches_still_yield_runnable_blocking() {
        let p = CacheParams {
            l1_bytes: 256,
            l2_bytes: 1024,
        };
        let blk = p.gemm_blocking(8, 4, 8);
        assert!(blk.kc >= 16 && blk.mc >= 4 && blk.nc >= 8);
        assert_eq!(blk.mc % 4, 0);
        assert_eq!(blk.nc % 8, 0);
    }

    #[test]
    fn bigger_l2_never_shrinks_blocks() {
        let small = CacheParams {
            l2_bytes: 128 * 1024,
            ..CacheParams::haswell_like()
        };
        let big = CacheParams::haswell_like();
        let bs = small.gemm_blocking(8, 4, 8);
        let bb = big.gemm_blocking(8, 4, 8);
        assert!(bb.mc >= bs.mc && bb.nc >= bs.nc);
        assert_eq!(bb.kc, bs.kc, "kc depends only on L1");
    }
}
