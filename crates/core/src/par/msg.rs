//! Message types exchanged by the parallel engines.
//!
//! [`Msg`] implements [`pa_mpsim::Wire`] so byte-stream transports (the
//! TCP backend) can carry it: a one-byte variant tag followed by fixed
//! little-endian fields, identical on every host. [`Msg1`] only ever
//! crosses in-process channels (Algorithm 3.1 runs on in-process worlds
//! only), so it has no byte encoding.

use crate::Node;
use pa_mpsim::wire::{get_u32, get_u64, get_u8, Wire};

/// Messages of Algorithm 3.1 (`x = 1`): a request asks the owner of `k`
/// for `F_k`; a resolved message carries the answer back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg1 {
    /// `⟨request, t, k⟩` — node `t` needs `F_k` (line 9 of Alg. 3.1).
    Request {
        /// The waiting node.
        t: Node,
        /// The node whose attachment is requested.
        k: Node,
    },
    /// `⟨resolved, t, v⟩` — `F_t` should be set to `v` (line 16).
    Resolved {
        /// The waiting node.
        t: Node,
        /// The resolved attachment target.
        v: Node,
    },
}

/// Messages of Algorithm 3.2 (`x ≥ 1`): requests and answers now carry
/// the requesting edge index `e` and the requested edge index `l`.
///
/// Requests additionally carry the requester's *attempt* counter, echoed
/// back verbatim in the answer. Under reliable delivery the tag is
/// redundant; under at-least-once delivery (duplication faults) it is
/// what restores exactly-once semantics for retried slots: a duplicated
/// `resolved` that races a duplicate-retry of the same slot would
/// otherwise be mistaken for the answer to the *re-drawn* request, and
/// the edge set would diverge from the sequential generator's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// `⟨request, t, e, k, l⟩` — node `t`'s edge `e` needs `F_k(l)`
    /// (line 14 of Alg. 3.2).
    Request {
        /// The waiting node.
        t: Node,
        /// Which of `t`'s edges is waiting.
        e: u32,
        /// The node whose attachment is requested.
        k: Node,
        /// Which of `k`'s edges is requested.
        l: u32,
        /// The requester's attempt counter for `(t, e)` at draw time.
        a: u32,
    },
    /// `⟨resolved, t, e, v⟩` — `F_t(e)` may be set to `v` (line 21),
    /// subject to the duplicate check.
    Resolved {
        /// The waiting node.
        t: Node,
        /// Which of `t`'s edges is waiting.
        e: u32,
        /// The resolved attachment target.
        v: Node,
        /// Echo of the request's attempt tag; answers whose tag is not
        /// the slot's latest outstanding attempt are stale and ignored.
        a: u32,
    },
    /// `⟨hub, k, l, v⟩` — owner broadcast of a committed hub slot:
    /// `F_k(l) = v`, for the receivers' replicated hub caches. Carries
    /// exactly the committed value a `resolved` for `(k, l)` would carry,
    /// which is why consuming it preserves the output bit-for-bit.
    Hub {
        /// The hub node whose slot committed.
        k: Node,
        /// Which of `k`'s edges committed.
        l: u32,
        /// The committed attachment target.
        v: Node,
    },
}

impl Wire for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Msg::Request { t, e, k, l, a } => {
                out.push(0);
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&e.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&l.to_le_bytes());
                out.extend_from_slice(&a.to_le_bytes());
            }
            Msg::Resolved { t, e, v, a } => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&e.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&a.to_le_bytes());
            }
            Msg::Hub { k, l, v } => {
                out.push(2);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&l.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match get_u8(input)? {
            0 => Some(Msg::Request {
                t: get_u64(input)?,
                e: get_u32(input)?,
                k: get_u64(input)?,
                l: get_u32(input)?,
                a: get_u32(input)?,
            }),
            1 => Some(Msg::Resolved {
                t: get_u64(input)?,
                e: get_u32(input)?,
                v: get_u64(input)?,
                a: get_u32(input)?,
            }),
            2 => Some(Msg::Hub {
                k: get_u64(input)?,
                l: get_u32(input)?,
                v: get_u64(input)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Msg) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut cursor = buf.as_slice();
        assert_eq!(Msg::decode(&mut cursor), Some(m));
        assert!(cursor.is_empty(), "decode left bytes behind");
    }

    #[test]
    fn wire_round_trips_every_variant() {
        round_trip(Msg::Request {
            t: 1 << 40,
            e: 3,
            k: 9,
            l: u32::MAX,
            a: 17,
        });
        round_trip(Msg::Resolved {
            t: 5,
            e: 0,
            v: 1 << 50,
            a: 2,
        });
        round_trip(Msg::Hub { k: 8, l: 1, v: 0 });
    }

    #[test]
    fn wire_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        Msg::Request {
            t: 1,
            e: 2,
            k: 3,
            l: 4,
            a: 5,
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            let mut cursor = &buf[..cut];
            assert_eq!(Msg::decode(&mut cursor), None, "truncated at {cut}");
        }
        let bad = [9u8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut cursor = &bad[..];
        assert_eq!(Msg::decode(&mut cursor), None, "unknown tag accepted");
    }

    #[test]
    fn messages_are_small() {
        // Traffic volume matters: the attempt tag (exactly-once retry
        // semantics under duplication faults) costs one alignment word,
        // so the general message is five words; `x = 1` needs no tag
        // (single slot, no retries) and stays at three.
        assert!(std::mem::size_of::<Msg>() <= 40);
        assert!(std::mem::size_of::<Msg1>() <= 24);
    }

    #[test]
    fn hub_broadcast_fits_the_packet_word_budget() {
        let m = Msg::Hub { k: 1, l: 0, v: 0 };
        assert!(std::mem::size_of_val(&m) <= 40);
    }

    #[test]
    fn messages_are_copy_and_eq() {
        let m = Msg::Request {
            t: 5,
            e: 1,
            k: 3,
            l: 0,
            a: 0,
        };
        let m2 = m;
        assert_eq!(m, m2);
    }
}
