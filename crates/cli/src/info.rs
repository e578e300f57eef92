//! `pagen info` — inspect a PAG container header, or (with `--n` and no
//! `--in`) estimate per-rank resident memory for a planned run.

use crate::args::{Args, CliError};
use pa_core::partition::{self, Partition};
use pa_core::store::{self, StoreSpec};
use pa_core::Engine;
use pa_graph::container;
use std::io::Write;

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.str("in", "");
    if path.is_empty() {
        return estimate(args, out);
    }
    args.finish()?;
    let (meta, shard_counts) = container::read_meta_file(&path).map_err(CliError::io)?;
    writeln!(out, "PAG container: {path}").map_err(CliError::io)?;
    writeln!(out, "nodes:  {}", meta.n).map_err(CliError::io)?;
    writeln!(
        out,
        "edges:  {} in {} shard(s)",
        shard_counts.iter().sum::<u64>(),
        shard_counts.len()
    )
    .map_err(CliError::io)?;
    if !shard_counts.is_empty() {
        let min = shard_counts.iter().min().unwrap();
        let max = shard_counts.iter().max().unwrap();
        writeln!(out, "shards: {min}..{max} edges each").map_err(CliError::io)?;
    }
    for (k, v) in &meta.attrs {
        writeln!(out, "attr:   {k} = {v}").map_err(CliError::io)?;
    }
    Ok(())
}

/// One table's contribution to the estimate: its name, resident bytes,
/// and bytes under the paged store's cache budget (`None` for state that
/// never pages).
struct TableLine {
    name: &'static str,
    resident: u64,
    budgeted: Option<u64>,
}

/// `pagen info --n <N>` (no `--in`): per-rank resident-memory estimate
/// for a planned `(n, x, ranks, scheme, engine)` run, and what
/// `--memory-budget` (and `--page-bytes`) would cap the pageable share
/// at. The estimate covers the engines' per-node state — the `O(n/P)`
/// term that dominates at scale — not transient message buffers.
fn estimate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let n = match args.u64("n", 0)? {
        0 => {
            return Err(CliError::usage(
                "pagen info needs --in <file> (inspect a container) or --n <nodes> \
                 (estimate per-rank memory for a planned run)",
            ))
        }
        n => n,
    };
    let x = args.u64("x", 4)?;
    let ranks: usize = args.int("ranks", 4)?;
    if ranks == 0 {
        return Err(CliError::usage("--ranks must be positive"));
    }
    let scheme = crate::generate::parse_scheme(&args.str("scheme", "rrp"))?;
    let engine = crate::generate::parse_engine(args)?;
    // `p` and the seed do not enter the estimate; any legal values do.
    let any = pa_core::PaConfig {
        n,
        x,
        p: 0.5,
        seed: 0,
    };
    any.check().map_err(CliError::usage)?;
    engine.check(x).map_err(CliError::usage)?;
    // `generate`'s own parse of `--memory-budget`, `--page-bytes` and
    // `--store-dir`, so a tuple it would run is a tuple this plans.
    let spec = crate::generate::parse_store_spec(args, "")?;
    let hub_nodes = if crate::generate::parse_hub_cache(args)? {
        pa_core::DEFAULT_HUB_CACHE_NODES.min(n)
    } else {
        0
    };
    let memo_nodes = args.u64("chain-memo", pa_core::DEFAULT_CHAIN_MEMO_NODES)?;
    args.finish()?;

    // The largest rank bounds every rank's table sizes.
    let part = partition::build(scheme, n, ranks);
    let size = (0..ranks).map(|r| part.size_of(r)).max().unwrap_or(0);
    let slots = size * x;

    // The F table is the one store-backed table of every engine, so it
    // takes the whole budget, in the cells and frames the run allocates
    // (`store::table_bytes`).
    let f_table = |name, f_slots: u64| TableLine {
        name,
        resident: store::table_bytes(n, f_slots, &StoreSpec::Resident),
        budgeted: spec
            .is_paged()
            .then(|| store::table_bytes(n, f_slots, &spec)),
    };
    let resident = |name, bytes| TableLine {
        name,
        resident: bytes,
        budgeted: None,
    };

    // Per-engine inventory of the per-node state: the F table pages to
    // disk under a budget, everything else stays resident regardless.
    let lines: Vec<TableLine> = match engine {
        Engine::X1 => vec![
            f_table("F table (1 slot/node)", size),
            resident("waiter bitmap (1 bit/node)", size.div_ceil(8)),
        ],
        Engine::General => vec![
            f_table("F table (x slots/node)", slots),
            resident("node cursors + attempts (u32)", size * 8),
            resident("waiter bitmap (1 bit/slot)", slots.div_ceil(8)),
            resident("hub cache (replicated)", hub_nodes * x * 8),
        ],
        Engine::Chain => vec![
            f_table("F table (x slots/node)", slots),
            resident("node cursors (u32)", size * 4),
            resident(
                "chain memo (allocated)",
                pa_core::chain_memo_bytes(memo_nodes, n, x),
            ),
        ],
    };

    writeln!(
        out,
        "per-rank memory estimate: n={n} x={x} ranks={ranks} scheme={scheme} engine={}",
        engine.id()
    )
    .map_err(CliError::io)?;
    writeln!(out, "largest rank: {size} nodes ({slots} F slots)").map_err(CliError::io)?;
    let mut resident_total = 0u64;
    let mut budgeted_total = 0u64;
    for l in &lines {
        resident_total += l.resident;
        budgeted_total += l.budgeted.unwrap_or(l.resident);
        match l.budgeted {
            Some(b) => writeln!(
                out,
                "  {:<28} {:>14}   {:>14} paged",
                l.name,
                human(l.resident),
                human(b)
            ),
            None => writeln!(out, "  {:<28} {:>14}", l.name, human(l.resident)),
        }
        .map_err(CliError::io)?;
    }
    match &spec {
        StoreSpec::Paged(p) => writeln!(
            out,
            "total: {} resident | {} under --memory-budget {}",
            human(resident_total),
            human(budgeted_total),
            human(p.budget_bytes)
        ),
        StoreSpec::Resident => writeln!(
            out,
            "total: {} resident (add --memory-budget <bytes[k|m|g]> to see the paged plan)",
            human(resident_total)
        ),
    }
    .map_err(CliError::io)?;
    Ok(())
}

/// Render a byte count with a binary-unit suffix.
fn human(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}
