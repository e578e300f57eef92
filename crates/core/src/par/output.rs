//! Results reported by the parallel engines.

use crate::partition::Scheme;
use crate::PaConfig;
use pa_graph::EdgeList;
use pa_mpsim::CommStats;

/// Algorithm-level event counters for one rank.
///
/// These are the quantities behind the paper's load-balance study
/// (Figure 7): nodes per processor, outgoing request messages, incoming
/// request messages — plus extra visibility into the dependency-wait and
/// duplicate-retry machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Local nodes processed (the rank's partition size).
    pub nodes: u64,
    /// Edges committed through the direct branch (probability `p`).
    pub direct_edges: u64,
    /// Edges committed through the copy branch (probability `1 − p`).
    pub copy_edges: u64,
    /// Copy lookups answered locally without waiting (`F_k` was already
    /// known on this rank).
    pub local_immediate: u64,
    /// Copy lookups queued locally (`k` local but `F_k` still pending).
    pub local_deferred: u64,
    /// Request messages sent to other ranks.
    pub requests_sent: u64,
    /// Incoming requests answered immediately.
    pub requests_served: u64,
    /// Incoming requests parked in a queue until the slot resolves.
    pub requests_queued: u64,
    /// Duplicate-edge retries (both the early check of Alg. 3.2 line 7
    /// and the late check of line 22).
    pub duplicate_retries: u64,
    /// Peak number of waiters parked in this rank's queues.
    pub max_queued_waiters: u64,
    /// Copy lookups answered by the replicated hub cache (each one is a
    /// request/resolved round trip that never hit the network).
    pub hub_hits: u64,
    /// Of those, lookups that arrived before the owner's broadcast and
    /// parked for it instead of sending a request.
    pub hub_deferred: u64,
    /// Hub broadcast entries installed into this rank's replica.
    pub hub_updates: u64,
    /// Incoming `resolved` messages discarded as stale — duplicates of
    /// answers already consumed, or answers to superseded draw attempts.
    /// Always zero on a clean transport; nonzero only under fault
    /// injection (duplication / retransmission).
    pub stale_resolutions: u64,
    /// Remote rows re-derived locally by engine3's chain walk (each one
    /// is a request/resolved round trip that never existed).
    pub chain_rows_recomputed: u64,
    /// Chain lookups answered by the per-rank memo of recently
    /// recomputed rows (engine3 only).
    pub chain_memo_hits: u64,
    /// Deepest dependency chain engine3 walked on this rank — the
    /// empirical counterpart of the paper's Lemma 3.1 O(log n) bound.
    pub chain_peak_depth: u64,
}

impl EngineCounters {
    /// Field count of the checkpoint encoding (one `u64` per field, in
    /// declaration order).
    pub(super) const ENCODED_FIELDS: usize = 17;

    /// Append the checkpoint encoding: every field as a little-endian
    /// `u64`, in declaration order.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.nodes,
            self.direct_edges,
            self.copy_edges,
            self.local_immediate,
            self.local_deferred,
            self.requests_sent,
            self.requests_served,
            self.requests_queued,
            self.duplicate_retries,
            self.max_queued_waiters,
            self.hub_hits,
            self.hub_deferred,
            self.hub_updates,
            self.stale_resolutions,
            self.chain_rows_recomputed,
            self.chain_memo_hits,
            self.chain_peak_depth,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decode the [`EngineCounters::encode`] layout from the front of
    /// `input`, advancing it; `None` on truncation.
    pub(super) fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut fields = [0u64; Self::ENCODED_FIELDS];
        for f in &mut fields {
            *f = pa_mpsim::wire::get_u64(input)?;
        }
        let [nodes, direct_edges, copy_edges, local_immediate, local_deferred, requests_sent, requests_served, requests_queued, duplicate_retries, max_queued_waiters, hub_hits, hub_deferred, hub_updates, stale_resolutions, chain_rows_recomputed, chain_memo_hits, chain_peak_depth] =
            fields;
        Some(Self {
            nodes,
            direct_edges,
            copy_edges,
            local_immediate,
            local_deferred,
            requests_sent,
            requests_served,
            requests_queued,
            duplicate_retries,
            max_queued_waiters,
            hub_hits,
            hub_deferred,
            hub_updates,
            stale_resolutions,
            chain_rows_recomputed,
            chain_memo_hits,
            chain_peak_depth,
        })
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

    /// Sum of all ranks' algorithm counters.
    pub fn total_counters(&self) -> EngineCounters {
        let mut total = EngineCounters::default();
        for r in &self.ranks {
            let c = &r.counters;
            total.nodes += c.nodes;
            total.direct_edges += c.direct_edges;
            total.copy_edges += c.copy_edges;
            total.local_immediate += c.local_immediate;
            total.local_deferred += c.local_deferred;
            total.requests_sent += c.requests_sent;
            total.requests_served += c.requests_served;
            total.requests_queued += c.requests_queued;
            total.duplicate_retries += c.duplicate_retries;
            total.max_queued_waiters = total.max_queued_waiters.max(c.max_queued_waiters);
            total.hub_hits += c.hub_hits;
            total.hub_deferred += c.hub_deferred;
            total.hub_updates += c.hub_updates;
            total.stale_resolutions += c.stale_resolutions;
            total.chain_rows_recomputed += c.chain_rows_recomputed;
            total.chain_memo_hits += c.chain_memo_hits;
            total.chain_peak_depth = total.chain_peak_depth.max(c.chain_peak_depth);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn counters_checkpoint_encoding_round_trips() {
        let mut c = EngineCounters::default();
        // Distinct values per field so a transposed decode cannot pass.
        for (i, f) in [
            &mut c.nodes,
            &mut c.direct_edges,
            &mut c.copy_edges,
            &mut c.local_immediate,
            &mut c.local_deferred,
            &mut c.requests_sent,
            &mut c.requests_served,
            &mut c.requests_queued,
            &mut c.duplicate_retries,
            &mut c.max_queued_waiters,
            &mut c.hub_hits,
            &mut c.hub_deferred,
            &mut c.hub_updates,
            &mut c.stale_resolutions,
            &mut c.chain_rows_recomputed,
            &mut c.chain_memo_hits,
            &mut c.chain_peak_depth,
        ]
        .into_iter()
        .enumerate()
        {
            *f = (i as u64 + 1) * 1_000;
        }
        let mut bytes = Vec::new();
        c.encode(&mut bytes);
        assert_eq!(bytes.len(), 8 * EngineCounters::ENCODED_FIELDS);
        let mut r: &[u8] = &bytes;
        assert_eq!(EngineCounters::decode(&mut r), Some(c));
        assert!(r.is_empty(), "decode consumes exactly the encoding");
        let mut short: &[u8] = &bytes[..bytes.len() - 1];
        assert_eq!(EngineCounters::decode(&mut short), None);
    }
}
