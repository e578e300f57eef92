//! The experiment binaries parse flags with `pagen`'s parser: a flag the
//! experiment does not read is a usage error (exit 2, the flag named on
//! stderr) before any work, never a silent run of the defaults.

use std::process::{Command, Output};

fn fig3(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig3_lcp_partition"))
        .args(args)
        .output()
        .expect("spawn fig3_lcp_partition")
}

#[test]
fn unknown_flag_is_a_usage_error_before_any_work() {
    let out = fig3(&["--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "the experiment ran before rejecting the flag"
    );

    let out = fig3(&["--n", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--n must be an integer"), "{stderr}");

    // Both flag forms still reach the experiment.
    let out = fig3(&["--n", "10000", "--ranks=8"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("n = 10000, P = 8"), "{stdout}");
}
