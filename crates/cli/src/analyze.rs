//! `pagen analyze` — structural report of a stored network.

use crate::args::{Args, CliError};
use pa_analysis::report;
use pa_graph::{container, io, EdgeList};
use std::io::Write;

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.str_required("in")?;
    let format = args.str("format", "pag");

    let (n, edges) = match format.as_str() {
        "pag" => {
            let (meta, shards) = container::read_file(&path)
                .map_err(|e| CliError::io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))?;
            let edges = EdgeList::concat(shards);
            let n = if meta.n > 0 {
                meta.n
            } else {
                edges.max_node().map_or(1, |m| m + 1)
            };
            writeln!(out, "container attributes:").map_err(CliError::io)?;
            for (k, v) in &meta.attrs {
                writeln!(out, "  {k} = {v}").map_err(CliError::io)?;
            }
            writeln!(out).map_err(CliError::io)?;
            (n, edges)
        }
        "bin" | "txt" => {
            let edges = if format == "bin" {
                io::read_binary_file(&path).map_err(CliError::io)?
            } else {
                io::read_text_file(&path).map_err(CliError::io)?
            };
            let inferred = edges.max_node().map_or(1, |m| m + 1);
            let n = args.u64("n", inferred)?;
            if edges.max_node().is_some_and(|m| m >= n) {
                return Err(CliError::usage(format!(
                    "--n {n} is smaller than the largest node id in the file"
                )));
            }
            (n, edges)
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown format {other:?} (expected pag, bin or txt)"
            )))
        }
    };
    args.finish()?;

    if n == 0 {
        return Err(CliError::usage("graph has no nodes"));
    }
    let report = report::analyze(n, &edges);
    writeln!(out, "{report}").map_err(CliError::io)
}
