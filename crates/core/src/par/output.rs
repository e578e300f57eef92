//! Results reported by the parallel engines.

use crate::partition::Scheme;
use crate::PaConfig;
use pa_graph::EdgeList;
use pa_mpsim::CommStats;

pa_mpsim::counters! {
    /// Algorithm-level event counters for one rank.
    ///
    /// These are the quantities behind the paper's load-balance study
    /// (Figure 7): nodes per processor, outgoing request messages, incoming
    /// request messages — plus extra visibility into the dependency-wait and
    /// duplicate-retry machinery.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineCounters {
        /// Local nodes processed (the rank's partition size).
        nodes: sum,
        /// Edges committed through the direct branch (probability `p`).
        direct_edges: sum,
        /// Edges committed through the copy branch (probability `1 − p`).
        copy_edges: sum,
        /// Copy lookups answered locally without waiting (`F_k` was already
        /// known on this rank).
        local_immediate: sum,
        /// Copy lookups queued locally (`k` local but `F_k` still pending).
        local_deferred: sum,
        /// Request messages sent to other ranks.
        requests_sent: sum,
        /// Incoming requests answered immediately.
        requests_served: sum,
        /// Incoming requests parked in a queue until the slot resolves.
        requests_queued: sum,
        /// Duplicate-edge retries (both the early check of Alg. 3.2 line 7
        /// and the late check of line 22).
        duplicate_retries: sum,
        /// Peak number of waiters parked in this rank's queues.
        max_queued_waiters: max,
        /// Copy lookups answered by the replicated hub cache (each one is a
        /// request/resolved round trip that never hit the network).
        hub_hits: sum,
        /// Of those, lookups that arrived before the owner's broadcast and
        /// parked for it instead of sending a request.
        hub_deferred: sum,
        /// Hub broadcast entries installed into this rank's replica.
        hub_updates: sum,
        /// Incoming `resolved` messages discarded as stale — duplicates of
        /// answers already consumed, or answers to superseded draw attempts.
        /// Always zero on a clean transport; nonzero only under fault
        /// injection (duplication / retransmission).
        stale_resolutions: sum,
        /// Remote rows re-derived locally by engine3's chain walk (each one
        /// is a request/resolved round trip that never existed).
        chain_rows_recomputed: sum,
        /// Chain lookups answered by the per-rank memo of recently
        /// recomputed rows (engine3 only).
        chain_memo_hits: sum,
        /// Deepest dependency chain engine3 walked on this rank — the
        /// empirical counterpart of the paper's Lemma 3.1 O(log n) bound.
        chain_peak_depth: max,
    }
}

/// Everything one rank produced.
#[derive(Debug, Clone)]
pub struct RankOutput {
    /// The rank id.
    pub rank: usize,
    /// Edges of this rank's nodes (each edge emitted exactly once, by the
    /// node that created it).
    pub edges: EdgeList,
    /// Transport-level traffic statistics.
    pub comm: CommStats,
    /// Algorithm-level counters.
    pub counters: EngineCounters,
    /// Nanoseconds this rank's thread spent on a CPU while generating
    /// (`None` where [`pa_mpsim::thread_cpu_ns`] has no reading).
    pub cpu_ns: Option<u64>,
}

impl RankOutput {
    /// The paper's §4.6.3 unit load, the measure Figure 7(d) plots:
    /// nodes + incoming messages + outgoing messages.
    pub fn paper_load(&self) -> u64 {
        self.counters.nodes + self.comm.msgs_recv + self.comm.msgs_sent
    }
}

/// The combined result of a parallel generation run.
#[derive(Debug, Clone)]
pub struct ParallelOutput {
    /// The model parameters used.
    pub cfg: PaConfig,
    /// The partitioning scheme used (if one of the standard three).
    pub scheme: Option<Scheme>,
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<RankOutput>,
}

impl ParallelOutput {
    /// Concatenate every rank's edges (rank order).
    pub fn edge_list(&self) -> EdgeList {
        let mut out = EdgeList::with_capacity(self.total_edges());
        for r in &self.ranks {
            out.extend_from(&r.edges);
        }
        out
    }

    /// Total edge count across ranks.
    pub fn total_edges(&self) -> usize {
        self.ranks.iter().map(|r| r.edges.len()).sum()
    }

    /// All ranks' algorithm counters, merged (peaks by maximum, the
    /// rest summed).
    pub fn total_counters(&self) -> EngineCounters {
        let mut total = EngineCounters::default();
        for r in &self.ranks {
            total.merge(&r.counters);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_mpsim::Wire;

    #[test]
    fn load_maps_counters_and_comm() {
        let mut comm = CommStats::new(2);
        comm.msgs_sent = 5;
        comm.msgs_recv = 7;
        comm.packets_sent = 2;
        comm.packets_recv = 3;
        let out = RankOutput {
            rank: 0,
            edges: EdgeList::new(),
            comm,
            counters: EngineCounters {
                nodes: 11,
                ..Default::default()
            },
            cpu_ns: None,
        };
        // Packets are transport detail, not the paper's load.
        assert_eq!(out.paper_load(), 11 + 5 + 7);
    }

    #[test]
    fn paper_load_is_sum_of_counts() {
        // Only nodes and transport messages count: packets and the
        // engine's own request counters stay out of the paper's load.
        let mut comm = CommStats::new(2);
        comm.msgs_sent = 3;
        comm.msgs_recv = 4;
        comm.packets_sent = 99;
        comm.packets_recv = 99;
        let out = RankOutput {
            rank: 1,
            edges: EdgeList::new(),
            comm,
            counters: EngineCounters {
                nodes: 10,
                requests_sent: 99,
                requests_served: 99,
                requests_queued: 99,
                ..Default::default()
            },
            cpu_ns: Some(1),
        };
        assert_eq!(out.paper_load(), 17);
    }

    /// Hex of `bytes`, for golden comparisons.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The checkpoint's counter section, byte for byte: 17 little-endian
    /// words in declaration order (checkpoint `VERSION` 3). A reordered,
    /// added or dropped counter changes these bytes.
    #[test]
    fn counters_checkpoint_bytes_are_pinned() {
        let c = EngineCounters {
            nodes: 0x01,
            direct_edges: 0x02,
            copy_edges: 0x03,
            local_immediate: 0x04,
            local_deferred: 0x05,
            requests_sent: 0x06,
            requests_served: 0x07,
            requests_queued: 0x08,
            duplicate_retries: 0x09,
            max_queued_waiters: 0x0a,
            hub_hits: 0x0b,
            hub_deferred: 0x0c,
            hub_updates: 0x0d,
            stale_resolutions: 0x0e,
            chain_rows_recomputed: 0x0f,
            chain_memo_hits: 0x10,
            chain_peak_depth: 0x0102_0304_0506_0708,
        };
        let mut bytes = Vec::new();
        c.to_words().encode(&mut bytes);
        let golden: String = (1..=16u8)
            .map(|i| format!("{i:02x}00000000000000"))
            .chain(["0807060504030201".to_string()])
            .collect();
        assert_eq!(hex(&bytes), golden);
    }

    #[test]
    fn counters_checkpoint_encoding_round_trips() {
        // Distinct values per field so a transposed decode cannot pass.
        let c = EngineCounters::from_words(std::array::from_fn(|i| (i as u64 + 1) * 1_000));
        let mut bytes = Vec::new();
        c.to_words().encode(&mut bytes);
        assert_eq!(bytes.len(), 8 * EngineCounters::NAMES.len());
        let mut r: &[u8] = &bytes;
        assert_eq!(
            Wire::decode(&mut r).map(EngineCounters::from_words),
            Some(c)
        );
        assert!(r.is_empty(), "decode consumes exactly the encoding");
        let mut short: &[u8] = &bytes[..bytes.len() - 1];
        assert_eq!(<[u64; 17]>::decode(&mut short), None);
    }

    #[test]
    fn total_counters_sums_and_keeps_peaks() {
        let rank = |c: EngineCounters| RankOutput {
            rank: 0,
            edges: EdgeList::new(),
            comm: CommStats::new(1),
            counters: c,
            cpu_ns: None,
        };
        let a = EngineCounters {
            nodes: 3,
            max_queued_waiters: 9,
            chain_peak_depth: 2,
            ..Default::default()
        };
        let b = EngineCounters {
            nodes: 4,
            max_queued_waiters: 5,
            chain_peak_depth: 7,
            ..Default::default()
        };
        let out = ParallelOutput {
            cfg: PaConfig::new(10, 1),
            scheme: None,
            ranks: vec![rank(a), rank(b)],
        };
        let t = out.total_counters();
        assert_eq!(
            (t.nodes, t.max_queued_waiters, t.chain_peak_depth),
            (7, 9, 7)
        );
    }
}
