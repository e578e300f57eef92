//! Merged communication statistics: one world-wide summary instead of
//! `P` per-rank ledgers.
//!
//! The in-process backends hand the CLI every rank's [`CommStats`]
//! directly; the TCP backend cannot (each rank is its own process), so
//! each rank's ledger travels through the transport's allgather — the
//! same collective the engines already rely on — and is folded the same
//! way. Either way the result is a [`MergedStats`], rendered as a human
//! summary and, with
//! `--stats-json`, as a hand-written JSON object (no serialization
//! dependency in this workspace).

use std::io::Write;

use pa_mpsim::{CommStats, Transport};

use crate::args::{Args, CliError};

/// What the user asked to see.
pub(crate) struct StatsFlags {
    /// `--stats on`: print the merged summary.
    pub summary: bool,
    /// `--stats-json <path>`: also write the merged stats as JSON.
    pub json: Option<String>,
}

impl StatsFlags {
    /// Read `--stats` / `--stats-json`.
    pub fn parse(args: &Args) -> Result<Self, CliError> {
        let summary = args.choice("stats", "off", &["on", "off"])? == "on";
        let json = match args.str("stats-json", "") {
            p if p.is_empty() => None,
            p => Some(p),
        };
        Ok(StatsFlags { summary, json })
    }

    /// Whether any reporting was requested at all.
    pub fn wanted(&self) -> bool {
        self.summary || self.json.is_some()
    }

    /// Render and/or write `merged` as requested.
    pub fn emit(&self, merged: &MergedStats, out: &mut dyn Write) -> Result<(), CliError> {
        if self.summary {
            merged.render(out).map_err(CliError::io)?;
        }
        if let Some(path) = &self.json {
            std::fs::write(path, merged.to_json()).map_err(CliError::io)?;
        }
        Ok(())
    }
}

/// World-wide communication totals (the union of every rank's
/// [`CommStats`]) plus the per-rank traffic breakdown the paper's
/// load-balance figures plot.
pub(crate) struct MergedStats {
    pub world: usize,
    pub totals: CommStats,
    /// Per-rank `msgs_sent + msgs_recv`, by rank.
    pub per_rank_msgs: Vec<u64>,
}

impl MergedStats {
    /// Merge in-process: all ranks' ledgers are in hand.
    pub fn from_local(stats: &[CommStats]) -> Self {
        let mut totals = CommStats::new(stats.len());
        for s in stats {
            totals.merge(s);
        }
        MergedStats {
            world: stats.len(),
            totals,
            per_rank_msgs: stats.iter().map(CommStats::total_msgs).collect(),
        }
    }

    /// Merge across processes: every rank contributes its own ledger
    /// through the transport's collectives. **Every rank must call
    /// this**, in the same program position (it is a collective); each
    /// gets the same totals back.
    pub fn over_transport<M>(t: &impl Transport<M>, own: &CommStats) -> Self {
        // One allgather per counter; rank r's ledger is entry r of each.
        let gathered = own.to_words().map(|w| t.allgather_u64(w));
        let ledgers: Vec<CommStats> = (0..t.nranks())
            .map(|r| CommStats::from_words(std::array::from_fn(|i| gathered[i][r])))
            .collect();
        Self::from_local(&ledgers)
    }

    /// Human-readable summary (one block, stable line prefixes so tests
    /// can grep it).
    pub fn render(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let t = &self.totals;
        writeln!(
            out,
            "comm stats ({} rank(s)): {} msgs sent / {} recv in {} / {} packets",
            self.world, t.msgs_sent, t.msgs_recv, t.packets_sent, t.packets_recv
        )?;
        let acquires = t.pool_hits + t.pool_misses;
        if acquires > 0 {
            writeln!(
                out,
                "  pool: {} hits / {} misses ({:.1}% hit), {} buffers recycled",
                t.pool_hits,
                t.pool_misses,
                100.0 * t.pool_hits as f64 / acquires as f64,
                t.bufs_recycled
            )?;
        }
        if t.faults_injected + t.retransmitted + t.deduped > 0 {
            writeln!(
                out,
                "  faults: {} injected, {} retransmitted, {} deduped",
                t.faults_injected, t.retransmitted, t.deduped
            )?;
        }
        let max = self.per_rank_msgs.iter().copied().max().unwrap_or(0);
        let mean =
            self.per_rank_msgs.iter().sum::<u64>() as f64 / self.per_rank_msgs.len().max(1) as f64;
        writeln!(
            out,
            "  per-rank msgs: {:?} (imbalance max/mean {:.2})",
            self.per_rank_msgs,
            if mean > 0.0 { max as f64 / mean } else { 1.0 }
        )
    }

    /// The merged stats as a JSON object: `world`, every [`CommStats`]
    /// counter in declaration order, then `per_rank_msgs` (hand-written;
    /// the workspace has no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut j = format!("{{\n  \"world\": {},\n", self.world);
        for (name, v) in CommStats::NAMES.iter().zip(self.totals.to_words()) {
            j += &format!("  \"{name}\": {v},\n");
        }
        let per_rank: Vec<String> = self.per_rank_msgs.iter().map(u64::to_string).collect();
        j + &format!("  \"per_rank_msgs\": [{}]\n}}\n", per_rank.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MergedStats {
        let mut a = CommStats::new(2);
        a.on_send(1, 10);
        a.on_recv(1, 4);
        let mut b = CommStats::new(2);
        b.on_send(0, 4);
        b.on_recv(0, 10);
        MergedStats::from_local(&[a, b])
    }

    #[test]
    fn from_local_sums_ranks() {
        let m = sample();
        assert_eq!(m.world, 2);
        assert_eq!(m.totals.msgs_sent, 14);
        assert_eq!(m.totals.msgs_recv, 14);
        assert_eq!(m.per_rank_msgs, vec![14, 14]);
    }

    #[test]
    fn render_is_greppable() {
        let mut out = Vec::new();
        sample().render(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("comm stats (2 rank(s))"), "{s}");
        assert!(s.contains("14 msgs sent / 14 recv"), "{s}");
        assert!(s.contains("per-rank msgs"), "{s}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = sample().to_json();
        assert!(j.starts_with("{\n"), "{j}");
        assert!(j.trim_end().ends_with('}'), "{j}");
        assert!(j.contains("\"msgs_sent\": 14"), "{j}");
        assert!(j.contains("\"per_rank_msgs\": [14, 14]"), "{j}");
        // Balanced braces/brackets, no trailing commas before closers.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n}"), "{j}");
    }

    /// The `--stats-json` document, byte for byte: `world`, the ten
    /// counters in declaration order, `per_rank_msgs`.
    #[test]
    fn json_document_is_pinned() {
        let a = CommStats {
            msgs_sent: 1,
            msgs_recv: 2,
            packets_sent: 3,
            packets_recv: 4,
            pool_hits: 5,
            pool_misses: 6,
            bufs_recycled: 7,
            faults_injected: 8,
            retransmitted: 9,
            deduped: 10,
            ..CommStats::new(2)
        };
        let mut b = CommStats::new(2);
        b.msgs_sent = 100;
        let golden = concat!(
            "{\n",
            "  \"world\": 2,\n",
            "  \"msgs_sent\": 101,\n",
            "  \"msgs_recv\": 2,\n",
            "  \"packets_sent\": 3,\n",
            "  \"packets_recv\": 4,\n",
            "  \"pool_hits\": 5,\n",
            "  \"pool_misses\": 6,\n",
            "  \"bufs_recycled\": 7,\n",
            "  \"faults_injected\": 8,\n",
            "  \"retransmitted\": 9,\n",
            "  \"deduped\": 10,\n",
            "  \"per_rank_msgs\": [3, 100]\n",
            "}\n",
        );
        assert_eq!(MergedStats::from_local(&[a, b]).to_json(), golden);
    }

    #[test]
    fn stats_flags_parse() {
        let args = Args::parse(
            ["--stats", "on", "--stats-json", "/tmp/x.json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let f = StatsFlags::parse(&args).unwrap();
        assert!(f.summary);
        assert_eq!(f.json.as_deref(), Some("/tmp/x.json"));
        assert!(f.wanted());

        let none = Args::parse(std::iter::empty()).unwrap();
        let f = StatsFlags::parse(&none).unwrap();
        assert!(!f.wanted());

        let bad = Args::parse(["--stats", "loud"].iter().map(|s| s.to_string())).unwrap();
        assert!(StatsFlags::parse(&bad).is_err());
    }
}
