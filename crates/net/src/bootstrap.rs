//! World bootstrap: how `P` independent processes become a wired mesh.
//!
//! Every rank knows the full peer table (`peers[r]` is rank `r`'s listen
//! address — the launcher distributes it). Bootstrap is then symmetric
//! and deadlock-free by construction:
//!
//! 1. **Bind.** Rank `r` binds a listener on `peers[r]` first, so dials
//!    from other ranks land in the accept backlog even before `accept`
//!    is called.
//! 2. **Dial down.** Rank `r` dials every rank *below* itself,
//!    retrying with capped exponential backoff (10 ms doubling to
//!    500 ms) under [`TcpConfig::connect_timeout`]; a peer that never
//!    answers yields [`NetError::Unreachable`] naming the rank — a clean
//!    nonzero exit, not a hang. Each established connection exchanges
//!    `HELLO` frames (magic, protocol version, world size, rank) in both
//!    directions before it counts.
//! 3. **Accept up.** Rank `r` then accepts the dials from every rank
//!    *above* itself, validating their `HELLO`s the same way, until the
//!    mesh is complete or the timeout expires
//!    ([`NetError::AcceptTimeout`] lists who is missing). The accept
//!    blocks: each dial is taken the moment it lands, with no poll
//!    interval. A deadline helper thread waits on a condvar until the
//!    mesh completes or the timeout expires; only at expiry does it
//!    connect to the listener itself, which ends the blocked `accept` so
//!    the timeout is raised on time.
//!
//! Ranks only ever *wait* on lower ranks (rank 0 waits on nobody to
//! dial), so the wait graph is acyclic and the whole mesh settles in one
//! pass.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pa_mpsim::Wire;

use crate::backoff::Backoff;
use crate::error::NetError;
use crate::frame;
use crate::transport::TcpTransport;

/// How one rank joins a TCP world.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This rank's id in `[0, world)`.
    pub rank: usize,
    /// Number of ranks in the world.
    pub world: usize,
    /// `host:port` listen address of every rank, by rank;
    /// `peers[rank]` is this rank's own listen address.
    pub peers: Vec<String>,
    /// Total budget for the dial-and-accept bootstrap. An unreachable
    /// peer fails the rank with [`NetError::Unreachable`] once this
    /// expires.
    pub connect_timeout: Duration,
    /// Backstop timeout for a single collective once the mesh is up; a
    /// peer that is alive but wedged fails the round loudly instead of
    /// hanging it forever.
    pub collective_timeout: Duration,
    /// Restart-attempt generation, exchanged in the `HELLO` handshake: a
    /// fresh launch is epoch 0 and every gang restart bumps it, so a
    /// straggler process from a previous attempt cannot wire into the
    /// restarted world.
    pub epoch: u64,
}

impl TcpConfig {
    /// A config with the default timeouts (30 s connect, 120 s
    /// collective) at restart epoch 0.
    pub fn new(rank: usize, world: usize, peers: Vec<String>) -> Self {
        TcpConfig {
            rank,
            world,
            peers,
            connect_timeout: Duration::from_secs(30),
            collective_timeout: Duration::from_secs(120),
            epoch: 0,
        }
    }

    /// Bind a loopback listener (ephemeral port) for every rank of a
    /// `world`-sized job and return the matching configs. The listeners
    /// are handed back so in-process multi-rank tests can pass them to
    /// [`TcpTransport::connect_with_listener`] with no bind/dial race.
    ///
    /// # Errors
    ///
    /// [`NetError::LoopbackSetup`] naming the rank whose listener could
    /// not be bound or inspected (e.g. file-descriptor exhaustion).
    pub fn local_world(world: usize) -> Result<Vec<(TcpConfig, TcpListener)>, NetError> {
        let fail = |rank: usize, detail: String| NetError::LoopbackSetup { rank, detail };
        let mut listeners = Vec::with_capacity(world);
        let mut peers = Vec::with_capacity(world);
        for rank in 0..world {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| fail(rank, format!("bind loopback listener: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| fail(rank, format!("read listener address: {e}")))?;
            peers.push(addr.to_string());
            listeners.push(listener);
        }
        Ok(listeners
            .into_iter()
            .enumerate()
            .map(|(rank, l)| (TcpConfig::new(rank, world, peers.clone()), l))
            .collect())
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.world == 0 {
            return Err(NetError::Config("world size must be at least 1".into()));
        }
        if self.rank >= self.world {
            return Err(NetError::Config(format!(
                "rank {} out of range for world size {}",
                self.rank, self.world
            )));
        }
        if self.peers.len() != self.world {
            return Err(NetError::Config(format!(
                "peer list has {} entries for world size {}",
                self.peers.len(),
                self.world
            )));
        }
        Ok(())
    }
}

fn resolve(spec: &str) -> Result<SocketAddr, NetError> {
    spec.to_socket_addrs()
        .map_err(|e| NetError::Address {
            spec: spec.to_string(),
            detail: e.to_string(),
        })?
        .next()
        .ok_or_else(|| NetError::Address {
            spec: spec.to_string(),
            detail: "resolved to no addresses".into(),
        })
}

/// The shared dial schedule: 10 ms doubling to a 500 ms cap (see
/// [`Backoff`]). The serve-layer fetch client reuses the same shape
/// (with jitter) for its reconnects.
pub(crate) fn dial_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(10), Duration::from_millis(500))
}

/// Dial `peer` with capped exponential backoff until `deadline`.
fn dial(peer: usize, spec: &str, deadline: Instant) -> Result<TcpStream, NetError> {
    let addr = resolve(spec)?;
    let start = Instant::now();
    let mut backoff = dial_backoff();
    let mut last_err = String::from("never attempted");
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(NetError::Unreachable {
                rank: peer,
                addr: spec.to_string(),
                waited: now - start,
                detail: last_err,
            });
        }
        let attempt_budget = (deadline - now).min(Duration::from_secs(1));
        match TcpStream::connect_timeout(&addr, attempt_budget) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e.to_string(),
        }
        let delay = backoff.next_delay();
        std::thread::sleep(delay.min(deadline.saturating_duration_since(Instant::now())));
    }
}

/// Exchange `HELLO`s on a dialed connection (we speak first) and check
/// the peer answers as the rank we dialed.
fn handshake_out(
    stream: &mut TcpStream,
    cfg: &TcpConfig,
    expect_rank: usize,
    deadline: Instant,
) -> Result<(), NetError> {
    let peer_name = format!("rank {expect_rank}");
    let fail = |detail: String| NetError::Handshake {
        peer: peer_name.clone(),
        detail,
    };
    stream
        .set_read_timeout(Some(remaining(deadline)))
        .map_err(|e| fail(e.to_string()))?;
    frame::write_hello(stream, cfg.world as u32, cfg.rank as u32, cfg.epoch)
        .map_err(|e| fail(format!("sending HELLO: {e}")))?;
    let (_, rank) =
        frame::read_hello(stream, cfg.world as u32, cfg.epoch).map_err(|e| fail(e.to_string()))?;
    if rank as usize != expect_rank {
        return Err(fail(format!(
            "peer at {} answered as rank {rank}, expected rank {expect_rank} — \
             peer table mismatch?",
            cfg.peers[expect_rank]
        )));
    }
    stream
        .set_read_timeout(None)
        .map_err(|e| fail(e.to_string()))?;
    Ok(())
}

/// Validate the `HELLO` of an accepted connection (the dialer speaks
/// first) and answer it; returns the peer's rank.
fn handshake_in(
    stream: &mut TcpStream,
    cfg: &TcpConfig,
    deadline: Instant,
) -> Result<usize, NetError> {
    let peer_name = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let fail = |detail: String| NetError::Handshake {
        peer: peer_name.clone(),
        detail,
    };
    stream
        .set_read_timeout(Some(remaining(deadline)))
        .map_err(|e| fail(e.to_string()))?;
    let (_, rank) =
        frame::read_hello(stream, cfg.world as u32, cfg.epoch).map_err(|e| fail(e.to_string()))?;
    let rank = rank as usize;
    if rank <= cfg.rank || rank >= cfg.world {
        return Err(fail(format!(
            "claimed rank {rank}, but rank {} only accepts dials from ranks {}..{}",
            cfg.rank,
            cfg.rank + 1,
            cfg.world
        )));
    }
    frame::write_hello(stream, cfg.world as u32, cfg.rank as u32, cfg.epoch)
        .map_err(|e| fail(format!("answering HELLO: {e}")))?;
    stream
        .set_read_timeout(None)
        .map_err(|e| fail(e.to_string()))?;
    Ok(rank)
}

/// Time left until `deadline`, floored at 1 ms so socket timeouts stay
/// valid (`set_read_timeout` rejects zero).
fn remaining(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// The address a process dials to reach its own listener bound at
/// `addr`: the wildcard address (`0.0.0.0`, `::`) becomes loopback. The
/// serve daemon uses it to wake its blocked accept loop.
pub(crate) fn self_dial_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Ends a blocking `accept` at a deadline: a helper thread waits on a
/// condvar until the owner disarms it (dropping it) or the deadline
/// passes, and only then connects to the listener, so the blocked
/// `accept` returns and the owner sees [`AcceptDeadline::expired`].
struct AcceptDeadline {
    /// `Some(expired)` while armed; `None` once disarmed.
    state: Arc<(Mutex<Option<bool>>, Condvar)>,
    helper: Option<JoinHandle<()>>,
}

/// Lock the deadline state; every update leaves it valid, so a poisoned
/// lock is still usable (and `Drop` must not panic on one).
fn lock_state(state: &Mutex<Option<bool>>) -> MutexGuard<'_, Option<bool>> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl AcceptDeadline {
    fn arm(listener: &TcpListener, deadline: Instant) -> std::io::Result<Self> {
        let addr = self_dial_addr(listener.local_addr()?);
        let state = Arc::new((Mutex::new(Some(false)), Condvar::new()));
        let shared = Arc::clone(&state);
        let helper = std::thread::Builder::new()
            .name("pa-net-accept-deadline".into())
            .spawn(move || {
                let (lock, cv) = &*shared;
                let wait = deadline.saturating_duration_since(Instant::now());
                let (mut armed, _) = cv
                    .wait_timeout_while(lock_state(lock), wait, |armed| armed.is_some())
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(expired) = armed.as_mut() {
                    *expired = true;
                    drop(armed);
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
            })?;
        Ok(AcceptDeadline {
            state,
            helper: Some(helper),
        })
    }

    /// Whether the deadline has passed (and the helper broke the accept).
    fn expired(&self) -> bool {
        *lock_state(&self.state.0) == Some(true)
    }
}

impl Drop for AcceptDeadline {
    fn drop(&mut self) {
        *lock_state(&self.state.0) = None;
        self.state.1.notify_all();
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

impl<M: Wire + Send + 'static> TcpTransport<M> {
    /// Join the world described by `cfg`: bind `peers[rank]`, run the
    /// dial/accept bootstrap (see the [module docs](crate::bootstrap)),
    /// and return the wired transport.
    pub fn connect(cfg: TcpConfig) -> Result<Self, NetError> {
        cfg.validate()?;
        let addr = resolve(&cfg.peers[cfg.rank])?;
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Bind {
            addr: cfg.peers[cfg.rank].clone(),
            detail: e.to_string(),
        })?;
        Self::connect_with_listener(cfg, listener)
    }

    /// Like [`TcpTransport::connect`], but with the listen socket
    /// already bound (in-process tests bind every rank's listener up
    /// front, which makes ephemeral-port worlds race-free).
    pub fn connect_with_listener(cfg: TcpConfig, listener: TcpListener) -> Result<Self, NetError> {
        cfg.validate()?;
        let deadline = Instant::now() + cfg.connect_timeout;
        let start = Instant::now();
        let mut streams: Vec<Option<TcpStream>> = (0..cfg.world).map(|_| None).collect();

        // Dial down.
        for (peer, slot) in streams.iter_mut().enumerate().take(cfg.rank) {
            let mut stream = dial(peer, &cfg.peers[peer], deadline)?;
            handshake_out(&mut stream, &cfg, peer, deadline)?;
            *slot = Some(stream);
        }

        // Accept up, blocking; the deadline helper breaks the accept only
        // if the mesh is still incomplete when the timeout expires.
        let bind_err = |what: &str, e: std::io::Error| NetError::Bind {
            addr: cfg.peers[cfg.rank].clone(),
            detail: format!("{what}: {e}"),
        };
        let mut missing = cfg.world - cfg.rank - 1;
        if missing > 0 {
            listener
                .set_nonblocking(false)
                .map_err(|e| bind_err("set_nonblocking", e))?;
            let expiry = AcceptDeadline::arm(&listener, deadline)
                .map_err(|e| bind_err("arm deadline", e))?;
            while missing > 0 {
                let (mut stream, _) = listener.accept().map_err(|e| bind_err("accept", e))?;
                if expiry.expired() {
                    let absent: Vec<usize> = (cfg.rank + 1..cfg.world)
                        .filter(|&r| streams[r].is_none())
                        .collect();
                    return Err(NetError::AcceptTimeout {
                        missing: absent,
                        waited: start.elapsed(),
                    });
                }
                let rank = handshake_in(&mut stream, &cfg, deadline)?;
                if streams[rank].is_some() {
                    return Err(NetError::Handshake {
                        peer: format!("rank {rank}"),
                        detail: "rank connected twice — duplicate launch?".into(),
                    });
                }
                streams[rank] = Some(stream);
                missing -= 1;
            }
        }

        Self::from_streams(cfg.rank, cfg.world, streams, cfg.collective_timeout)
            .map_err(|e| NetError::Config(format!("wiring accepted connections failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_bad_worlds() {
        assert!(TcpConfig::new(0, 0, vec![]).validate().is_err());
        assert!(TcpConfig::new(2, 2, vec!["a".into(), "b".into()])
            .validate()
            .is_err());
        assert!(TcpConfig::new(0, 2, vec!["a".into()]).validate().is_err());
        assert!(TcpConfig::new(1, 2, vec!["a".into(), "b".into()])
            .validate()
            .is_ok());
    }

    #[test]
    fn local_world_hands_out_distinct_ports() {
        let world = TcpConfig::local_world(3).unwrap();
        assert_eq!(world.len(), 3);
        let peers = &world[0].0.peers;
        assert_eq!(peers.len(), 3);
        for (rank, (cfg, listener)) in world.iter().enumerate() {
            assert_eq!(cfg.rank, rank);
            assert_eq!(&cfg.peers, peers, "all ranks must share one peer table");
            assert_eq!(
                listener.local_addr().unwrap().to_string(),
                cfg.peers[rank],
                "listener must sit on the advertised address"
            );
        }
        let mut unique = peers.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 3, "ports must be distinct");
    }

    #[test]
    fn accept_times_out_on_time_naming_the_missing_ranks() {
        // Rank 0 of a 3-rank world whose ranks 1 and 2 never dial: the
        // blocked accept must be broken at the deadline, not hang.
        let mut world = TcpConfig::local_world(3).unwrap();
        let (mut cfg, listener) = world.remove(0);
        cfg.connect_timeout = Duration::from_millis(300);
        let start = Instant::now();
        let err = TcpTransport::<u64>::connect_with_listener(cfg, listener)
            .map(|_| ())
            .unwrap_err();
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(300),
            "gave up early: {waited:?}"
        );
        assert!(waited < Duration::from_secs(10), "accept hung: {waited:?}");
        match err {
            NetError::AcceptTimeout { missing, .. } => assert_eq!(missing, vec![1, 2]),
            other => panic!("expected AcceptTimeout, got {other}"),
        }
    }

    #[test]
    fn dial_times_out_with_a_named_rank() {
        // A bound-then-dropped port is (almost certainly) refusing
        // connections; the dial must give up at the deadline, not hang.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let start = Instant::now();
        let err = dial(3, &addr, Instant::now() + Duration::from_millis(300)).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(10), "dial hung");
        match err {
            NetError::Unreachable { rank, .. } => assert_eq!(rank, 3),
            other => panic!("expected Unreachable, got {other}"),
        }
    }
}
