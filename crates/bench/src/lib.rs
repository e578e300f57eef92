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

use pa_cli::{Args, CliError};
use pa_core::par::ParallelOutput;

/// Read an experiment's flags with `pagen`'s parser (`--key value` or
/// `--key=value`). `read` takes the flags the experiment knows; any other
/// flag is then rejected, so a typo cannot silently run the defaults. A
/// malformed or unknown flag is a usage error, reported as `pagen`
/// reports one — the message on stderr, exit status 2 — before the
/// experiment does any work.
pub fn flags<T>(read: impl FnOnce(&Args) -> Result<T, CliError>) -> T {
    parse_flags(std::env::args().skip(1), read).unwrap_or_else(|err| {
        eprintln!("error: {}", err.message());
        std::process::exit(2)
    })
}

/// [`flags`] on an explicit argument list, returning the usage error
/// instead of exiting.
///
/// # Errors
///
/// Errors on a malformed flag, a value `read` cannot parse, or a flag
/// `read` did not take.
pub fn parse_flags<T>(
    argv: impl IntoIterator<Item = String>,
    read: impl FnOnce(&Args) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let args = Args::parse(argv)?;
    let values = read(&args)?;
    args.finish()?;
    Ok(values)
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

    /// What an experiment reads; a usage error panics with the message
    /// [`flags`] would print before exiting.
    fn read(list: &[&str]) -> (u64, u64, f64, String) {
        parse_flags(list.iter().map(|s| s.to_string()), |a| {
            Ok((
                a.u64("n", 42)?,
                a.u64("x", 1)?,
                a.f64("p", 0.5)?,
                a.str("scheme", "ucp"),
            ))
        })
        .unwrap_or_else(|err| panic!("{}", err.message()))
    }

    #[test]
    fn parses_separated_and_equals_forms() {
        let (n, x, _, scheme) = read(&["--n", "100", "--x=4", "--scheme", "rrp"]);
        assert_eq!((n, x), (100, 4));
        assert_eq!(scheme, "rrp");
    }

    #[test]
    fn defaults_apply_when_missing() {
        assert_eq!(read(&[]), (42, 1, 0.5, "ucp".to_string()));
    }

    #[test]
    #[should_panic(expected = "missing value for --n")]
    fn dangling_key_panics() {
        read(&["--n"]);
    }

    #[test]
    #[should_panic(expected = "--n must be an integer")]
    fn bad_integer_panics() {
        read(&["--n", "abc"]);
    }
}
