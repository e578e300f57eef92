//! Shared harness plumbing for the experiment binaries.
//!
//! Each `src/bin/fig*.rs` / `src/bin/exp_*.rs` binary regenerates one
//! table or figure of the paper (see DESIGN.md §5 for the index). They
//! all print self-describing text tables plus machine-readable CSV lines
//! prefixed with `csv,` so results can be grepped straight into a
//! plotting tool:
//!
//! ```text
//! cargo run -p pa-bench --release --bin fig5_strong_scaling | grep ^csv,
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pa_core::par::ParallelOutput;
use std::collections::HashMap;

/// Minimal `--key value` / `--key=value` argument parser for the
/// experiment binaries (clap stays off the dependency list).
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments.
    ///
    /// # Panics
    ///
    /// Panics on a positional (non `--key`) argument.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments.
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, got {arg:?}"));
            if let Some((k, v)) = key.split_once('=') {
                values.insert(k.to_string(), v.to_string());
            } else {
                let v = iter
                    .next()
                    .unwrap_or_else(|| panic!("missing value for --{key}"));
                values.insert(key.to_string(), v);
            }
        }
        Self { values }
    }

    /// Look up a `u64` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Look up an `f64` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Look up a string flag with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Emit one machine-readable CSV record (prefixed so it survives mixed
/// with the human-readable tables).
pub fn csv_line(fields: &[&dyn std::fmt::Display]) {
    let joined = fields
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join(",");
    println!("csv,{joined}");
}

/// Each rank's measured on-CPU nanoseconds `W_r`, in rank order. The
/// timing figures print no stand-in for a missing reading: the process
/// exits with status 2, naming the rank.
pub fn rank_cpu_ns(out: &ParallelOutput) -> Vec<u64> {
    let missing = |rank| -> u64 {
        eprintln!(
            "error: rank {rank} has no on-CPU time reading (/proc/thread-self/schedstat \
             is unreadable); this figure is measured CPU time and cannot be printed"
        );
        std::process::exit(2)
    };
    out.ranks
        .iter()
        .map(|r| r.cpu_ns.unwrap_or_else(|| missing(r.rank)))
        .collect()
}

/// Print the standard experiment banner.
pub fn banner(figure: &str, description: &str) {
    println!("=== {figure} — {description} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_separated_and_equals_forms() {
        let a = args(&["--n", "100", "--x=4", "--scheme", "rrp"]);
        assert_eq!(a.get_u64("n", 0), 100);
        assert_eq!(a.get_u64("x", 0), 4);
        assert_eq!(a.get_str("scheme", ""), "rrp");
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = args(&[]);
        assert_eq!(a.get_u64("n", 42), 42);
        assert_eq!(a.get_f64("p", 0.5), 0.5);
        assert_eq!(a.get_str("scheme", "ucp"), "ucp");
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn dangling_key_panics() {
        let _ = args(&["--n"]);
    }

    #[test]
    #[should_panic(expected = "must be an integer")]
    fn bad_integer_panics() {
        let a = args(&["--n", "abc"]);
        let _ = a.get_u64("n", 0);
    }
}
