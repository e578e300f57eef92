//! Per-rank communication accounting.

crate::counters! {
    /// Communication statistics for a single rank.
    ///
    /// A *message* is one logical unit handed to [`crate::Transport::send`] or
    /// aggregated by [`crate::BufferedComm`]; a *packet* is one physical
    /// channel transfer (one "MPI send" in the paper's terms). The paper's
    /// load-balance study (Figure 7) plots, per processor, the number of
    /// outgoing and incoming messages together with the node count; this
    /// struct captures the message/packet half of that.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CommStats {
        /// Logical messages sent to other ranks.
        msgs_sent: sum,
        /// Logical messages received from other ranks.
        msgs_recv: sum,
        /// Physical packets (channel transfers) sent.
        packets_sent: sum,
        /// Physical packets received.
        packets_recv: sum,
        /// Send-buffer acquisitions served from the packet pool.
        pool_hits: sum,
        /// Send-buffer acquisitions that had to allocate (pool empty).
        pool_misses: sum,
        /// Received packet buffers returned to their sender's pool.
        bufs_recycled: sum,
        /// Faults injected by a perturbing transport layer (delays, reorders,
        /// duplicates, drops) — zero on a clean transport.
        faults_injected: sum,
        /// Packets re-delivered by the ack/retransmit recovery sublayer after
        /// a simulated drop or lost acknowledgement.
        retransmitted: sum,
        /// Redundant retransmissions discarded by sequence-number
        /// deduplication before the engine could observe them.
        deduped: sum,
    }
    plus {
        /// Logical messages sent, broken down by destination rank.
        sent_to: Vec<u64> = sum,
        /// Logical messages received, broken down by source rank.
        recv_from: Vec<u64> = sum,
    }
}

impl CommStats {
    /// Empty statistics for a world of `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        Self {
            sent_to: vec![0; nranks],
            recv_from: vec![0; nranks],
            ..Default::default()
        }
    }

    /// Record `n` logical messages leaving in one packet towards `dest`.
    /// Public so out-of-crate backends (`pa-net`) account traffic in the
    /// same ledger as the in-crate transports.
    #[inline]
    pub fn on_send(&mut self, dest: usize, n: u64) {
        self.msgs_sent += n;
        self.packets_sent += 1;
        self.sent_to[dest] += n;
    }

    /// Record a received packet of `n` logical messages from `src`.
    #[inline]
    pub fn on_recv(&mut self, src: usize, n: u64) {
        self.msgs_recv += n;
        self.packets_recv += 1;
        self.recv_from[src] += n;
    }

    /// Total logical message traffic (sent + received); the communication
    /// part of the paper's per-processor load measure (§4.6.3).
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent + self.msgs_recv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_recv_accumulate() {
        let mut s = CommStats::new(3);
        s.on_send(1, 5);
        s.on_send(1, 2);
        s.on_send(2, 1);
        s.on_recv(0, 4);
        assert_eq!(s.msgs_sent, 8);
        assert_eq!(s.packets_sent, 3);
        assert_eq!(s.sent_to, vec![0, 7, 1]);
        assert_eq!(s.msgs_recv, 4);
        assert_eq!(s.packets_recv, 1);
        assert_eq!(s.recv_from, vec![4, 0, 0]);
        assert_eq!(s.total_msgs(), 12);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CommStats::new(2);
        a.on_send(0, 1);
        let mut b = CommStats::new(2);
        b.on_send(1, 3);
        b.on_recv(0, 2);
        a.merge(&b);
        assert_eq!(a.msgs_sent, 4);
        assert_eq!(a.packets_sent, 2);
        assert_eq!(a.msgs_recv, 2);
        assert_eq!(a.sent_to, vec![1, 3]);
    }

    #[test]
    fn merge_sums_fault_counters() {
        let mut a = CommStats::new(1);
        a.faults_injected = 3;
        let mut b = CommStats::new(1);
        b.faults_injected = 2;
        b.retransmitted = 5;
        b.deduped = 1;
        a.merge(&b);
        assert_eq!(a.faults_injected, 5);
        assert_eq!(a.retransmitted, 5);
        assert_eq!(a.deduped, 1);
    }

    #[test]
    fn merge_grows_vectors() {
        let mut a = CommStats::new(1);
        let mut b = CommStats::new(4);
        b.on_send(3, 9);
        a.merge(&b);
        assert_eq!(a.sent_to.len(), 4);
        assert_eq!(a.sent_to[3], 9);
    }
}
