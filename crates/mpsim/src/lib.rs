//! A distributed-memory message-passing runtime for reproducing MPI
//! algorithms on a single machine.
//!
//! The SC'13 preferential-attachment generator of Alam, Khan & Marathe is
//! an MPI program: `P` processors with private memories exchanging
//! `request` / `resolved` messages. This crate provides the equivalent
//! substrate in safe Rust:
//!
//! * [`World::run`] spawns one OS thread per rank; each rank receives a
//!   [`Comm`] handle. Rank state is strictly private — the only data paths
//!   between ranks are typed channels (point-to-point, per-pair FIFO,
//!   asynchronous), mirroring MPI two-sided semantics.
//! * [`Comm`] offers point-to-point sends ([`Comm::send`],
//!   [`Comm::send_batch`]) and receives ([`Comm::try_recv`],
//!   [`Comm::recv_timeout`], batched [`Comm::drain_recv`]), plus
//!   collectives ([`Comm::barrier`], [`Comm::allreduce_sum`],
//!   [`Comm::allgather_u64`]) implemented on a shared control plane —
//!   semantically the same global operations MPI provides, kept separate
//!   from the data plane so they cannot leak algorithm state.
//! * A **packet pool** recycles send-buffer allocations between each
//!   (sender, receiver) pair: receivers hand drained packet buffers back
//!   via [`Comm::recycle`] and senders reuse them through
//!   [`Comm::acquire_buffer`], so steady-state traffic runs
//!   allocation-free. [`CommStats`] counts pool hits and misses.
//! * [`Transport`] abstracts the communicator surface the engines are
//!   written against (see the [`transport`] module docs for the receive
//!   contract). [`Comm`] is the threaded implementation;
//!   [`LoopbackTransport`] is a single-rank, thread-free one used for
//!   `P = 1` runs and deterministic unit tests; `pa-net`'s `TcpTransport`
//!   runs ranks as separate OS processes over sockets (messages cross it
//!   via the [`Wire`] encoding); a real MPI binding would be a fourth.
//!   The [`conformance`] module holds the shared contract suite every
//!   backend must pass.
//! * [`FaultTransport`] wraps any [`Transport`] and perturbs packet
//!   delivery — delays, cross-pair reorders, duplicates, drops — under a
//!   seeded [`FaultPlan`], with an ack/retransmit sublayer recovering
//!   drops so the engine surface stays oblivious (see the [`fault`]
//!   module docs). The chaos test suite runs the generators through it to
//!   prove their output does not depend on delivery timing.
//! * [`TerminationHandle`] is a global outstanding-work counter, standing
//!   in for the nonblocking-allreduce termination loop a production MPI
//!   code would run (see DESIGN.md §2 for the substitution argument).
//! * [`BufferedComm`] implements the paper's *message buffering*: logical
//!   messages destined for the same rank are aggregated into one packet
//!   (one "MPI send"), with explicit flush points so the deadlock-avoidance
//!   rules of §3.5.2 can be expressed.
//! * [`CommStats`] counts logical messages and physical packets per rank —
//!   exactly the quantities Figure 7 of the paper plots — and
//!   [`thread_cpu_ns`] reads a rank thread's on-CPU time, the measured
//!   work behind the scaling experiments (Figures 5 and 6).
//!
//! # Example
//!
//! ```
//! use pa_mpsim::World;
//!
//! // Every rank sends its rank number to rank 0, which sums them.
//! let world = World::new(4);
//! let results: Vec<u64> = world.run(|mut comm| {
//!     if comm.rank() == 0 {
//!         let mut sum = 0;
//!         let mut seen = 1; // itself
//!         while seen < comm.nranks() {
//!             if let Some(pkt) = comm.try_recv() {
//!                 sum += pkt.msgs.iter().sum::<u64>();
//!                 seen += 1;
//!             }
//!         }
//!         sum
//!     } else {
//!         comm.send(0, comm.rank() as u64);
//!         0
//!     }
//! });
//! assert_eq!(results[0], 1 + 2 + 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod channel;
mod comm;
pub mod conformance;
mod control;
mod cpu;
pub mod fault;
mod loopback;
mod stats;
pub mod transport;
pub mod wire;

pub use buffer::BufferedComm;
pub use comm::{Comm, Packet, World};
pub use control::{TerminationBackend, TerminationHandle};
pub use cpu::thread_cpu_ns;
pub use fault::{FaultPlan, FaultTransport};
pub use loopback::LoopbackTransport;
pub use stats::CommStats;
pub use transport::Transport;
pub use wire::Wire;
