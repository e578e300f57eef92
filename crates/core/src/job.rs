//! Generation-job descriptors for the serving layer.
//!
//! `pagen serve` turns the batch generator into a service: a client
//! submits the full parameter tuple of a run and streams the resulting
//! edge file back. The tuple itself, its canonical bytes and the job id
//! are `pa_graph::job::JobSpec`; this module owns its *meaning* on the
//! engine side — which [`PaConfig`]/[`GenOptions`]/[`Scheme`]/engine a
//! raw tuple selects, and which tuples are runnable at all. DESIGN.md
//! "Run identity and wire formats" has the layering, resume tokens and
//! the per-engine byte-order guarantees.
//!
//! Note that `ranks` *is* part of the tuple: the generated edge **set**
//! is independent of the rank count, but the on-disk byte order
//! interleaves per-rank partitions in rank order, so byte-identical
//! streams require the same `ranks` value.

use crate::partition::Scheme;
use crate::{Engine, GenOptions, ModelKind, PaConfig};
use pa_graph::io::EdgeFormat;

use pa_graph::job::JobSpec;
pub use pa_graph::job::JOB_CANONICAL_LEN;

/// A validated generation job: everything that determines the output
/// bytes of a run, and nothing that does not (tuning knobs like buffer
/// sizes change timing, never bytes, so they stay server-side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDescriptor {
    /// Model parameters (`n`, `x`, `p`, seed).
    pub cfg: PaConfig,
    /// Partitioning scheme.
    pub scheme: Scheme,
    /// Engine (1, 2 or 3).
    pub engine: u8,
    /// Attachment model.
    pub model: ModelKind,
    /// Rank count the stream's per-rank sections are concatenated for.
    pub ranks: u32,
    /// On-disk edge encoding.
    pub format: EdgeFormat,
}

impl JobDescriptor {
    /// Validate every cross-field rule, with named errors.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated rule:
    /// [`PaConfig::check`], the engine range and [`Engine::check`]
    /// (engine 1 needs `x = 1`), a positive rank count, and
    /// [`ModelKind::check`].
    pub fn validate(&self) -> Result<(), String> {
        self.cfg.check()?;
        self.typed_engine()?.check(self.cfg.x)?;
        if self.ranks == 0 {
            return Err("ranks must be at least 1".into());
        }
        self.model.check()
    }

    /// The wire-level engine id as an [`Engine`].
    fn typed_engine(&self) -> Result<Engine, String> {
        Engine::from_id(self.engine)
            .ok_or_else(|| format!("engine must be 1, 2 or 3, got {}", self.engine))
    }

    /// The engine options this job runs under: `base` (the server's
    /// tuning knobs) with the job's engine and model applied. Only the
    /// model reaches the draw streams; the engine fixes the byte order
    /// within each rank's section; every other knob is byte-neutral.
    ///
    /// # Panics
    ///
    /// Panics on a descriptor [`JobDescriptor::validate`] rejects.
    #[must_use]
    pub fn gen_options(&self, base: GenOptions) -> GenOptions {
        let engine = self.typed_engine().unwrap_or_else(|why| panic!("{why}"));
        base.with_engine(engine).with_model(self.model)
    }

    /// [`JobSpec::canonical_bytes`] of this job's tuple.
    pub fn canonical_bytes(&self) -> [u8; JOB_CANONICAL_LEN] {
        self.to_raw().canonical_bytes()
    }

    /// Stable job identity: [`JobSpec::job_id`] of this job's tuple.
    pub fn job_id(&self) -> u64 {
        self.to_raw().job_id()
    }

    /// Lower to the raw wire-shaped form.
    pub fn to_raw(&self) -> JobSpec {
        JobSpec {
            n: self.cfg.n,
            x: self.cfg.x,
            p_bits: self.cfg.p.to_bits(),
            seed: self.cfg.seed,
            alpha_bits: self.model.alpha_bits(),
            ranks: self.ranks,
            scheme_id: self.scheme.id(),
            engine_id: self.engine,
            model_id: self.model.id(),
            format_id: self.format.id(),
        }
    }

    /// Lift a raw descriptor into typed, validated form.
    ///
    /// # Errors
    ///
    /// Named errors for unknown scheme/model/format discriminants, a
    /// model-parameter field inconsistent with its model (`pa` with
    /// nonzero `alpha_bits` would silently lose the parameter on the
    /// round trip), and everything [`JobDescriptor::validate`] rejects.
    pub fn from_raw(raw: &JobSpec) -> Result<Self, String> {
        let scheme = Scheme::from_id(raw.scheme_id)
            .ok_or_else(|| format!("unknown scheme id {}", raw.scheme_id))?;
        let format = EdgeFormat::from_id(raw.format_id)
            .ok_or_else(|| format!("unknown edge-format id {}", raw.format_id))?;
        let model = match raw.model_id {
            0 => {
                if raw.alpha_bits != 0 {
                    return Err(format!(
                        "model pa carries no alpha, but alpha_bits = {:#x}",
                        raw.alpha_bits
                    ));
                }
                ModelKind::Pa
            }
            1 => ModelKind::Nlpa {
                alpha: f64::from_bits(raw.alpha_bits),
            },
            other => return Err(format!("unknown model id {other}")),
        };
        let desc = JobDescriptor {
            cfg: PaConfig {
                n: raw.n,
                x: raw.x,
                p: f64::from_bits(raw.p_bits),
                seed: raw.seed,
            },
            scheme,
            engine: raw.engine_id,
            model,
            ranks: raw.ranks,
            format,
        };
        desc.validate()?;
        Ok(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobDescriptor {
        JobDescriptor {
            cfg: PaConfig::new(10_000, 4).with_seed(7),
            scheme: Scheme::Rrp,
            engine: 2,
            model: ModelKind::Pa,
            ranks: 4,
            format: EdgeFormat::Binary,
        }
    }

    #[test]
    fn raw_round_trip_preserves_identity() {
        let d = sample();
        let back = JobDescriptor::from_raw(&d.to_raw()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.job_id(), d.job_id());

        let nlpa = JobDescriptor {
            model: ModelKind::Nlpa { alpha: 1.5 },
            ..sample()
        };
        let back = JobDescriptor::from_raw(&nlpa.to_raw()).unwrap();
        assert_eq!(back, nlpa);
    }

    #[test]
    fn job_id_is_sensitive_to_every_field() {
        let base = sample();
        let variants = [
            JobDescriptor {
                cfg: PaConfig {
                    n: 10_001,
                    ..base.cfg
                },
                ..base
            },
            JobDescriptor {
                cfg: PaConfig { x: 5, ..base.cfg },
                ..base
            },
            JobDescriptor {
                cfg: PaConfig {
                    p: 0.25,
                    ..base.cfg
                },
                ..base
            },
            JobDescriptor {
                cfg: PaConfig {
                    seed: 8,
                    ..base.cfg
                },
                ..base
            },
            JobDescriptor {
                scheme: Scheme::Lcp,
                ..base
            },
            JobDescriptor { engine: 3, ..base },
            JobDescriptor {
                model: ModelKind::Nlpa { alpha: 1.0 },
                ..base
            },
            JobDescriptor { ranks: 8, ..base },
            JobDescriptor {
                format: EdgeFormat::Text,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.job_id(), base.job_id(), "{v:?} collided with base");
        }
    }

    #[test]
    fn canonical_layout_is_pinned() {
        // The byte layout is wire identity: if this test moves, the
        // serve protocol version must be bumped.
        let d = sample();
        let bytes = d.canonical_bytes();
        assert_eq!(bytes.len(), JOB_CANONICAL_LEN);
        assert_eq!(&bytes[0..8], &10_000u64.to_le_bytes());
        assert_eq!(&bytes[8..16], &4u64.to_le_bytes());
        assert_eq!(&bytes[16..24], &0.5f64.to_bits().to_le_bytes());
        assert_eq!(&bytes[24..32], &7u64.to_le_bytes());
        assert_eq!(&bytes[32..40], &0u64.to_le_bytes());
        assert_eq!(&bytes[40..44], &4u32.to_le_bytes());
        assert_eq!(&bytes[44..48], &[2, 2, 0, 1]);
    }

    #[test]
    fn validate_names_each_violation() {
        let check = |d: JobDescriptor, needle: &str| {
            let err = d.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        };
        let base = sample();
        check(
            JobDescriptor {
                cfg: PaConfig { x: 0, ..base.cfg },
                ..base
            },
            "x must be",
        );
        check(
            JobDescriptor {
                cfg: PaConfig {
                    n: 4,
                    x: 4,
                    ..base.cfg
                },
                ..base
            },
            "must exceed",
        );
        check(
            JobDescriptor {
                cfg: PaConfig { p: 1.5, ..base.cfg },
                ..base
            },
            "[0, 1]",
        );
        check(
            JobDescriptor {
                cfg: PaConfig {
                    p: f64::NAN,
                    ..base.cfg
                },
                ..base
            },
            "[0, 1]",
        );
        check(JobDescriptor { engine: 4, ..base }, "engine must be");
        check(JobDescriptor { engine: 1, ..base }, "requires x = 1");
        check(JobDescriptor { ranks: 0, ..base }, "ranks");
        check(
            JobDescriptor {
                model: ModelKind::Nlpa { alpha: -1.0 },
                ..base
            },
            "non-negative",
        );
    }

    #[test]
    fn from_raw_rejects_bad_discriminants() {
        let raw = sample().to_raw();
        let bad = |f: fn(&mut JobSpec), needle: &str| {
            let mut r = raw;
            f(&mut r);
            let err = JobDescriptor::from_raw(&r).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        };
        bad(|r| r.scheme_id = 9, "unknown scheme");
        bad(|r| r.model_id = 9, "unknown model");
        bad(|r| r.format_id = 9, "unknown edge-format");
        bad(|r| r.alpha_bits = 1, "carries no alpha");
        bad(|r| r.engine_id = 0, "engine must be");
    }

    #[test]
    fn gen_options_applies_the_engine_and_model_only() {
        let d = JobDescriptor {
            engine: 3,
            model: ModelKind::Nlpa { alpha: 1.5 },
            ..sample()
        };
        let base = GenOptions::default().with_chain_memo(77);
        let opts = d.gen_options(base);
        assert_eq!(opts.engine, Engine::Chain);
        assert_eq!(opts.model, ModelKind::Nlpa { alpha: 1.5 });
        assert_eq!(opts.chain_memo_nodes, 77, "tuning knobs pass through");
    }
}
