//! Shared harness plumbing: argument parsing, the pool self-check banner,
//! and the hand-rolled JSON writer the `BENCH_*.json` emitters use.
//!
//! The fig binaries used to hand-roll all three; they are hoisted here so a
//! new harness is a `main` over measurements, not another copy of the
//! scaffolding.

use crate::{pool_self_check, PoolSelfCheck};
use matrox_core::MatroxError;
use matrox_points::DatasetId;

/// Parsed `--n`, `--q`, `--datasets` overrides plus the raw argument list
/// for harness-specific flags (see [`HarnessArgs::usize_flag`]).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Number of points per dataset.
    pub n: usize,
    /// Number of right-hand-side columns.
    pub q: usize,
    /// Datasets to run (paper names); empty = harness default.
    pub datasets: Vec<DatasetId>,
    /// The raw process arguments, for additional `--flag value` lookups.
    raw: Vec<String>,
}

impl HarnessArgs {
    /// Parse the process arguments, falling back to the given defaults.
    pub fn parse(default_n: usize, default_q: usize) -> Self {
        Self::parse_from(std::env::args().collect(), default_n, default_q)
    }

    /// [`parse`](HarnessArgs::parse) over an explicit argument list
    /// (testable entry).
    pub fn parse_from(raw: Vec<String>, default_n: usize, default_q: usize) -> Self {
        let mut out = HarnessArgs {
            n: default_n,
            q: default_q,
            datasets: Vec::new(),
            raw,
        };
        if let Some(list) = out.str_flag("--datasets") {
            out.datasets = list.split(',').filter_map(DatasetId::from_name).collect();
        }
        out.n = out.usize_flag("--n", out.n);
        out.q = out.usize_flag("--q", out.q);
        out
    }

    /// Value of `flag` parsed as `usize`, or `default` when absent/invalid.
    pub fn usize_flag(&self, flag: &str, default: usize) -> usize {
        self.str_flag(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Raw string value following `flag`, when present.
    fn str_flag(&self, flag: &str) -> Option<String> {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .cloned()
    }
}

/// Run the pool self-check and print the standard harness banner (observed
/// width, 1-vs-N timing, and the oversubscription warning when parallel
/// speedup is absent despite configured threads).  Returns the check so
/// harnesses can embed it in their JSON output.
///
/// # Errors
/// Propagates [`pool_self_check`]'s pool-construction failure.
pub fn pool_banner() -> Result<PoolSelfCheck, MatroxError> {
    let check = pool_self_check()?;
    println!("{}", check.report());
    if check.speedup < 1.1 && check.configured_threads > 1 {
        println!(
            "warning: parallel speedup not observed despite {} configured threads; \
             speedup columns below will understate scalability (oversubscribed host?)",
            check.configured_threads
        );
    }
    Ok(check)
}

/// Render the self-check as the standard `"self_check"` JSON object value.
pub fn self_check_json(check: &PoolSelfCheck) -> String {
    format!(
        "{{\"configured_threads\": {}, \"observed_width\": {}, \"t1_s\": {}, \
         \"tn_s\": {}, \"speedup\": {}}}",
        check.configured_threads,
        check.observed_width,
        json_f64(check.t1),
        json_f64(check.tn),
        json_f64(check.speedup)
    )
}

/// Format a float for the hand-rolled JSON (no serde in the offline vendor
/// set): finite values in scientific notation, everything else `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6e}")
    } else {
        "null".to_string()
    }
}

/// Format an optional float (`None` -> `null`).
pub fn json_opt(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_string())
}

/// Write a `BENCH_*.json` payload and print the standard wrote line.
///
/// # Errors
/// [`MatroxError::Io`] when the file cannot be written, so the bin exits
/// non-zero instead of reporting a figure it did not record.
pub fn write_bench_json(path: &str, json: &str) -> Result<(), MatroxError> {
    std::fs::write(path, json)?;
    println!("\nwrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> HarnessArgs {
        let mut raw = vec!["bin".to_string()];
        raw.extend(list.iter().map(|s| s.to_string()));
        HarnessArgs::parse_from(raw, 1000, 50)
    }

    #[test]
    fn flags_override_defaults_and_extras_are_reachable() {
        let a = args(&["--n", "256", "--q", "8", "--dense-max", "512"]);
        assert_eq!(a.n, 256);
        assert_eq!(a.q, 8);
        assert_eq!(a.usize_flag("--dense-max", 2048), 512);
        assert_eq!(a.usize_flag("--missing", 7), 7);
        let d = args(&["--datasets", "grid,unit"]);
        assert_eq!(d.datasets.len(), 2);
        let none = args(&[]);
        assert_eq!((none.n, none.q), (1000, 50));
        assert!(none.datasets.is_empty());
    }

    #[test]
    fn failed_write_is_an_io_error() {
        let dir = std::env::temp_dir().join(format!("matrox-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = dir.join("BENCH_ok.json");
        write_bench_json(&file.to_string_lossy(), "{}\n").expect("writable path");
        assert_eq!(std::fs::read_to_string(&file).expect("read back"), "{}\n");
        // A directory is not a writable file.
        let err = write_bench_json(&dir.to_string_lossy(), "{}\n");
        assert!(matches!(err, Err(MatroxError::Io(_))), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
