//! Model and engine configuration.

/// Parameters of a preferential-attachment network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaConfig {
    /// Number of nodes `n`; nodes are labelled `0 .. n`.
    pub n: u64,
    /// Edges contributed by each new node (`x` in the paper). The first
    /// `x` nodes form the seed clique.
    pub x: u64,
    /// Copy-model direct-connection probability `p`. `p = ½` reproduces
    /// the Barabási–Albert degree-proportional attachment exactly; other
    /// values shift the power-law exponent (Kumar et al.).
    pub p: f64,
    /// RNG seed. All randomness is a pure function of `(seed, node, edge,
    /// attempt)`, so runs are reproducible and — for `x = 1` — identical
    /// across any processor count or partitioning scheme.
    pub seed: u64,
}

impl PaConfig {
    /// Configuration with `p = ½` and seed 0.
    ///
    /// # Panics
    ///
    /// Panics unless `n > x >= 1` (the model needs a seed clique of `x`
    /// nodes plus at least one attaching node).
    pub fn new(n: u64, x: u64) -> Self {
        let cfg = Self {
            n,
            x,
            p: 0.5,
            seed: 0,
        };
        cfg.validate();
        cfg
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the copy-model probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self.validate();
        self
    }

    /// Human-readable validation error, if the parameters are invalid —
    /// the one statement of the model's parameter rules, shared by the
    /// panicking [`PaConfig::validate`], the job descriptor and the CLI.
    ///
    /// # Errors
    ///
    /// Degenerate `n`/`x` (the model needs a seed clique of `x ≥ 1`
    /// nodes plus one attaching node), or `p` outside `[0, 1]` or NaN.
    pub fn check(&self) -> Result<(), String> {
        if self.x == 0 {
            return Err("x must be at least 1".into());
        }
        if self.n <= self.x {
            return Err(format!(
                "n = {} must exceed x = {} (need n > x: seed clique plus one attaching node)",
                self.n, self.x
            ));
        }
        if !(0.0..=1.0).contains(&self.p) {
            return Err(format!("p = {} must lie in [0, 1]", self.p));
        }
        Ok(())
    }

    /// Panicking form of [`PaConfig::check`].
    ///
    /// # Panics
    ///
    /// Panics with the [`PaConfig::check`] message on invalid parameters.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Total number of edges the model produces:
    /// `x(x−1)/2` clique edges + `x` edges for every node `t >= x`.
    pub fn expected_edges(&self) -> u64 {
        self.x * (self.x - 1) / 2 + (self.n - self.x) * self.x
    }
}

/// Which per-node state machine resolves the copy dependencies of a run
/// (selected via [`GenOptions::engine`], `pagen --engine 1|2|3`). All
/// three compute the same function of `(seed, n, x, p, model)` — the
/// FNV oracles pin them to one edge set — and differ only in how a copy
/// `F_k(l)` owned by another rank is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Engine {
    /// Algorithm 3.1: the dedicated `x = 1` protocol with the paper's
    /// two-field messages. In-process worlds only.
    X1 = 1,
    /// Algorithm 3.2: in-order slots with request/resolved messages,
    /// any `x ≥ 1`.
    #[default]
    General = 2,
    /// Communication-free: every copy chain is recomputed locally from
    /// the counter-based draws; zero algorithm messages.
    Chain = 3,
}

impl Engine {
    /// Every engine, in [`Engine::id`] order.
    pub const ALL: [Engine; 3] = [Engine::X1, Engine::General, Engine::Chain];

    /// Stable discriminant for wire and checkpoint identity — the number
    /// `--engine` takes: 1, 2 or 3.
    pub fn id(&self) -> u8 {
        *self as u8
    }

    /// Inverse of [`Engine::id`]; `None` for unknown discriminants.
    pub fn from_id(id: u8) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.id() == id)
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::X1 => "engine1",
            Engine::General => "engine2",
            Engine::Chain => "engine3",
        }
    }

    /// Whether this engine can generate a network with `x` edges per
    /// node.
    ///
    /// # Errors
    ///
    /// [`Engine::X1`] implements Algorithm 3.1, whose one-slot node
    /// state and two-field messages only exist for `x = 1`.
    pub fn check(&self, x: u64) -> Result<(), String> {
        if *self == Engine::X1 && x != 1 {
            return Err(format!(
                "engine 1 (Algorithm 3.1) requires x = 1, got x = {x}"
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default hub-cache size in *nodes* when [`GenOptions::hub_cache_nodes`]
/// is `None` (the cache holds `min(hub_cache_nodes, n) · x` slots).
pub const DEFAULT_HUB_CACHE_NODES: u64 = 4096;

/// Default chain-memo capacity in *nodes* for the communication-free
/// engine (engine3): roughly how many recomputed rows each rank keeps
/// to deduplicate shared chain suffixes (the engine clamps it to `n`
/// and rounds up to a power of two — direct-mapped slots). The memo is
/// a pure-function cache, so its size never affects the generated
/// network — only the amount of redundant recomputation, which grows
/// steeply once hot low-label rows stop fitting; hence a generous
/// default (`x = 4` at the full default size costs ~40 MB per rank).
pub const DEFAULT_CHAIN_MEMO_NODES: u64 = 1 << 20;

/// Bytes of engine 3's chain memo for a `cap`-row budget over an
/// `n`-node network with `x` slots per node: what every rank allocates,
/// up front. The budget is clamped to `n` and rounded up to a power of
/// two (the memo is direct-mapped); each slot holds `1 + x` cells (a tag
/// and the row), of the node tables' width
/// ([`crate::store::cell_bytes`]). `cap = 0` is no memo, 0 B.
pub fn chain_memo_bytes(cap: u64, n: u64, x: u64) -> u64 {
    let (slots, _) = chain_memo_shape(cap, n);
    slots * (1 + x) * crate::store::cell_bytes(n)
}

/// The chain memo's slot count and whether its cells are compact `u32`s
/// (see [`chain_memo_bytes`] and [`crate::store::compact_cells`]).
pub(crate) fn chain_memo_shape(cap: u64, n: u64) -> (u64, bool) {
    let slots = if cap == 0 {
        0
    } else {
        cap.min(n).next_power_of_two()
    };
    (slots, crate::store::compact_cells(n))
}

/// Tuning knobs for the parallel engines.
///
/// (`Eq` is not derived: [`GenOptions::fault_plan`] carries the fault
/// schedule's `f64` probabilities. `Copy` is not derived:
/// [`GenOptions::store`] carries a directory path.)
#[derive(Debug, Clone, PartialEq)]
pub struct GenOptions {
    /// Which engine resolves copy dependencies (see [`Engine`]). Never
    /// changes the generated edge set.
    pub engine: Engine,
    /// Message-buffer capacity per destination (the paper's message
    /// aggregation, §3.5). 1 disables buffering: every logical message is
    /// its own packet.
    pub buffer_capacity: usize,
    /// How many local nodes to generate between servicing rounds of the
    /// incoming-message queue. Small values favour latency (shorter
    /// dependency waits), large values favour throughput.
    pub service_interval: usize,
    /// Number of low-label "hub" nodes whose committed `F` slots every
    /// rank replicates (general engine only). Lemma 3.4 concentrates
    /// request traffic on exactly these nodes, so a small cache absorbs a
    /// large share of remote lookups without changing the output. `None`
    /// uses [`DEFAULT_HUB_CACHE_NODES`]; `Some(0)` disables the cache.
    pub hub_cache_nodes: Option<u64>,
    /// Seeded fault-injection schedule. When set, every rank's transport
    /// is wrapped in a [`pa_mpsim::FaultTransport`] that delays,
    /// reorders, duplicates and drops-with-recovery packets according to
    /// the plan — the generated edge set must not change (the chaos
    /// suite's invariant). `None` runs on the clean transport.
    pub fault_plan: Option<pa_mpsim::FaultPlan>,
    /// Stall watchdog: if the global outstanding-work counter stops
    /// moving for this long while work remains, every rank dumps its
    /// progress state (comm stats, outstanding count, waiter depths) and
    /// panics instead of hanging. `None` disables the watchdog (the
    /// default — clean transports cannot stall).
    pub stall_timeout: Option<std::time::Duration>,
    /// Checkpoint epoch length in *node labels*: the driver splits the
    /// label range `[0, n)` into epochs of this many labels and runs each
    /// to global quiescence (barrier-aligned), snapshotting engine state
    /// at every boundary when a checkpoint store is attached. Because
    /// every copy-model dependency points to a **lower** label, a
    /// finished epoch leaves no waiter state and no tracked traffic in
    /// flight — exactly the consistent cut a checkpoint needs. `None`
    /// runs the whole range as a single epoch (no extra barriers).
    pub checkpoint_interval: Option<u64>,
    /// Chain-memo capacity in *nodes* for engine3's local recomputation:
    /// each rank memoizes this many recently resolved remote rows
    /// (FIFO-evicted) so chains sharing a suffix are walked once, not
    /// once per referencing edge. `0` disables the memo. Because every
    /// memoized row is a pure function of the seed, the memo size cannot
    /// change the generated network (pinned by the determinism suite).
    pub chain_memo_nodes: u64,
    /// Which attachment model to generate (see [`crate::ModelKind`]).
    /// The default is the paper's copy model; `Nlpa { alpha }` re-weights
    /// the direct-vs-copy coin to `p^alpha` (nonlinear preferential
    /// attachment surrogate), with `alpha = 1` bit-identical to `Pa`.
    pub model: crate::ModelKind,
    /// Where each rank keeps its `F` table (the committed slots):
    /// RAM-resident, or spilled to fixed-size page files under a byte
    /// budget so `n` is bounded by disk instead of memory (see
    /// [`crate::store`]). Because every table read returns the identical
    /// committed values either way, the store backend can never change
    /// the generated network — only its memory footprint.
    pub store: crate::store::StoreSpec,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self {
            engine: Engine::default(),
            buffer_capacity: 4096,
            service_interval: 4096,
            hub_cache_nodes: None,
            fault_plan: None,
            stall_timeout: None,
            checkpoint_interval: None,
            chain_memo_nodes: DEFAULT_CHAIN_MEMO_NODES,
            model: crate::ModelKind::Pa,
            store: crate::store::StoreSpec::Resident,
        }
    }
}

impl GenOptions {
    /// Replace the engine (see [`Engine`]).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replace the hub-cache size (in nodes); `0` disables the cache.
    #[must_use]
    pub fn with_hub_cache(mut self, nodes: u64) -> Self {
        self.hub_cache_nodes = Some(nodes);
        self
    }

    /// Disable the hub cache, restoring the paper's pure request/resolved
    /// protocol (useful when measuring the uncached message-count laws).
    #[must_use]
    pub fn without_hub_cache(self) -> Self {
        self.with_hub_cache(0)
    }

    /// Run every rank's traffic through a fault-injecting transport
    /// driven by `plan` (see [`pa_mpsim::FaultTransport`]).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: pa_mpsim::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Arm the stall watchdog: panic with a progress report if no global
    /// progress happens for `timeout` while work remains.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Split the run into checkpoint epochs of `interval` node labels
    /// (see [`GenOptions::checkpoint_interval`]).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Replace the engine3 chain-memo capacity (in nodes); `0` disables
    /// the memo (see [`GenOptions::chain_memo_nodes`]).
    #[must_use]
    pub fn with_chain_memo(mut self, nodes: u64) -> Self {
        self.chain_memo_nodes = nodes;
        self
    }

    /// Replace the attachment model (see [`crate::ModelKind`]).
    #[must_use]
    pub fn with_model(mut self, model: crate::ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Select nonlinear preferential attachment with exponent `alpha`
    /// (shorthand for `with_model(ModelKind::Nlpa { alpha })`).
    #[must_use]
    pub fn with_alpha(self, alpha: f64) -> Self {
        self.with_model(crate::ModelKind::Nlpa { alpha })
    }

    /// Replace the node-table store backend (see [`GenOptions::store`]
    /// and [`crate::store::StoreSpec`]).
    #[must_use]
    pub fn with_store(mut self, store: crate::store::StoreSpec) -> Self {
        self.store = store;
        self
    }

    /// Page the node tables to `dir` under `budget_bytes` of cache per
    /// rank (shorthand for `with_store(StoreSpec::paged(..))`).
    #[must_use]
    pub fn with_memory_budget(self, dir: impl Into<std::path::PathBuf>, budget_bytes: u64) -> Self {
        self.with_store(crate::store::StoreSpec::paged(dir, budget_bytes))
    }

    /// Effective hub-cache size in nodes for an `n`-node run.
    pub fn hub_nodes(&self, n: u64) -> u64 {
        self.hub_cache_nodes
            .unwrap_or(DEFAULT_HUB_CACHE_NODES)
            .min(n)
    }

    /// Validate option values.
    ///
    /// # Panics
    ///
    /// Panics if any knob that must be positive is zero, or if the
    /// model parameters are invalid (negative, NaN or non-finite
    /// `alpha`; see [`crate::ModelKind::check`]).
    pub fn validate(&self) {
        assert!(
            self.buffer_capacity > 0,
            "buffer_capacity must be positive (1 disables aggregation; \
             0 would make every flush a no-op and the run could not send)"
        );
        assert!(
            self.service_interval > 0,
            "service_interval must be positive"
        );
        if let Some(plan) = &self.fault_plan {
            plan.validate();
        }
        if let Some(timeout) = self.stall_timeout {
            assert!(
                !timeout.is_zero(),
                "stall_timeout must be positive (a zero timeout fires immediately)"
            );
        }
        if let Some(interval) = self.checkpoint_interval {
            assert!(
                interval > 0,
                "checkpoint_interval must be positive (use None for a single epoch)"
            );
        }
        self.store.validate();
        self.model.validate();
    }

    /// Validate option values against a concrete run of `n` nodes.
    ///
    /// Everything [`GenOptions::validate`] checks, plus the knobs whose
    /// legal range depends on the network size. The generate entry points
    /// call this so misconfigurations fail before any rank spawns.
    ///
    /// # Panics
    ///
    /// Panics if a positive knob is zero, or if an *explicit*
    /// `hub_cache_nodes` exceeds `n` (there are only `n` nodes to cache;
    /// asking for more is a unit mix-up — e.g. passing a slot count where
    /// a node count is expected. The `None` default is capped at `n`
    /// silently instead).
    pub fn validate_for(&self, n: u64) {
        self.validate();
        if let Some(hub) = self.hub_cache_nodes {
            assert!(
                hub <= n,
                "hub_cache_nodes = {hub} exceeds the network size n = {n}; \
                 the hub cache replicates low-label *nodes*, so at most n make sense \
                 (use None to auto-size, or Some(0) to disable)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = PaConfig::new(100, 3);
        assert_eq!(cfg.p, 0.5);
        assert_eq!(cfg.seed, 0);
        cfg.validate();
        GenOptions::default().validate();
    }

    #[test]
    fn engine_ids_round_trip_and_reject_unknowns() {
        for e in Engine::ALL {
            assert_eq!(Engine::from_id(e.id()), Some(e));
        }
        assert_eq!(Engine::ALL.map(|e| e.id()), [1, 2, 3]);
        assert_eq!(Engine::from_id(0), None);
        assert_eq!(Engine::from_id(4), None);
        assert_eq!(GenOptions::default().engine, Engine::General);
        let opts = GenOptions::default().with_engine(Engine::Chain);
        assert_eq!(opts.engine, Engine::Chain);
    }

    #[test]
    fn only_engine_1_constrains_x() {
        assert!(Engine::X1.check(1).is_ok());
        let err = Engine::X1.check(3).unwrap_err();
        assert!(err.contains("requires x = 1"), "{err}");
        for e in [Engine::General, Engine::Chain] {
            assert!(e.check(1).is_ok() && e.check(7).is_ok());
        }
    }

    #[test]
    fn builder_chains() {
        let cfg = PaConfig::new(10, 2).with_seed(9).with_p(0.25);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.p, 0.25);
    }

    #[test]
    fn expected_edges_matches_model() {
        assert_eq!(PaConfig::new(10, 1).expected_edges(), 9);
        assert_eq!(PaConfig::new(10, 3).expected_edges(), 3 + 21);
        assert_eq!(
            PaConfig::new(10, 3).expected_edges() as usize,
            pa_graph::validate::expected_pa_edges(10, 3)
        );
    }

    #[test]
    #[should_panic(expected = "must exceed x")]
    fn n_not_greater_than_x_panics() {
        let _ = PaConfig::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "x must be at least 1")]
    fn zero_x_panics() {
        let _ = PaConfig::new(3, 0);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn bad_p_panics() {
        let _ = PaConfig::new(10, 1).with_p(1.5);
    }

    #[test]
    fn extreme_p_values_allowed() {
        let _ = PaConfig::new(10, 1).with_p(0.0);
        let _ = PaConfig::new(10, 1).with_p(1.0);
    }

    #[test]
    fn hub_cache_size_resolution() {
        let opts = GenOptions::default();
        assert_eq!(opts.hub_nodes(1_000_000), DEFAULT_HUB_CACHE_NODES);
        assert_eq!(opts.hub_nodes(100), 100, "capped at n");
        assert_eq!(opts.clone().with_hub_cache(64).hub_nodes(1_000_000), 64);
        assert_eq!(opts.without_hub_cache().hub_nodes(1_000_000), 0);
    }

    #[test]
    fn fault_plan_and_stall_timeout_builders() {
        let plan = pa_mpsim::FaultPlan::light(7);
        let opts = GenOptions::default()
            .with_fault_plan(plan)
            .with_stall_timeout(std::time::Duration::from_secs(5));
        assert_eq!(opts.fault_plan, Some(plan));
        assert_eq!(opts.stall_timeout, Some(std::time::Duration::from_secs(5)));
        opts.validate();
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_fault_plan_rejected_by_validate() {
        let plan = pa_mpsim::FaultPlan {
            p_drop: 2.0,
            ..pa_mpsim::FaultPlan::none(0)
        };
        GenOptions {
            fault_plan: Some(plan),
            ..GenOptions::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "stall_timeout must be positive")]
    fn zero_stall_timeout_panics() {
        GenOptions::default()
            .with_stall_timeout(std::time::Duration::ZERO)
            .validate();
    }

    #[test]
    fn chain_memo_builder() {
        assert_eq!(
            GenOptions::default().chain_memo_nodes,
            DEFAULT_CHAIN_MEMO_NODES
        );
        let opts = GenOptions::default().with_chain_memo(0);
        assert_eq!(opts.chain_memo_nodes, 0, "0 disables the memo");
        opts.validate();
        assert_eq!(GenOptions::default().with_chain_memo(7).chain_memo_nodes, 7);
    }

    #[test]
    fn checkpoint_interval_builder() {
        let opts = GenOptions::default().with_checkpoint_interval(1_000);
        assert_eq!(opts.checkpoint_interval, Some(1_000));
        opts.validate();
        assert_eq!(GenOptions::default().checkpoint_interval, None);
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval must be positive")]
    fn zero_checkpoint_interval_panics() {
        GenOptions::default().with_checkpoint_interval(0).validate();
    }

    #[test]
    #[should_panic(expected = "buffer_capacity must be positive")]
    fn zero_buffer_capacity_panics() {
        GenOptions {
            buffer_capacity: 0,
            ..GenOptions::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exceeds the network size")]
    fn hub_cache_larger_than_n_panics() {
        GenOptions::default().with_hub_cache(101).validate_for(100);
    }

    #[test]
    fn validate_for_accepts_boundary_and_default_hub_sizes() {
        // Explicit cache of exactly n nodes is legal ...
        GenOptions::default().with_hub_cache(100).validate_for(100);
        // ... as are the disabled cache and the auto-sized default, even
        // when the default exceeds n (it caps silently).
        GenOptions::default().without_hub_cache().validate_for(100);
        GenOptions::default().validate_for(DEFAULT_HUB_CACHE_NODES / 2);
    }

    #[test]
    #[should_panic(expected = "buffer_capacity must be positive")]
    fn validate_for_also_checks_size_independent_knobs() {
        GenOptions {
            buffer_capacity: 0,
            ..GenOptions::default()
        }
        .validate_for(100);
    }

    #[test]
    fn model_builders() {
        assert_eq!(GenOptions::default().model, crate::ModelKind::Pa);
        let opts = GenOptions::default().with_alpha(1.5);
        assert_eq!(opts.model, crate::ModelKind::Nlpa { alpha: 1.5 });
        opts.validate();
        let opts = GenOptions::default().with_model(crate::ModelKind::Pa);
        assert_eq!(opts.model, crate::ModelKind::Pa);
        GenOptions::default().with_alpha(0.0).validate_for(100);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_alpha_rejected_by_validate() {
        GenOptions::default().with_alpha(-0.5).validate();
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_alpha_rejected_by_validate_for() {
        GenOptions::default().with_alpha(f64::NAN).validate_for(100);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_alpha_rejected_by_validate() {
        GenOptions::default()
            .with_alpha(f64::INFINITY)
            .validate_for(100);
    }
}
