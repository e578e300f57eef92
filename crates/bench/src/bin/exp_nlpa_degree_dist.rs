//! Nonlinear-PA degree distribution — does α actually move the exponent?
//!
//! The nlpa surrogate re-weights the copy model's direct-vs-copy coin to
//! `p_eff = p^α`, which predicts a degree exponent `γ ≈ 1 + 1/(1 − p_eff)`:
//! sub-linear kernels (α < 1) thin the tail (larger γ), super-linear ones
//! (α > 1) thicken it (smaller γ). This experiment generates the same
//! workload at a sweep of exponents through the communication-free engine,
//! fits γ two ways (discrete MLE and a log-binned log–log slope), and
//! prints measured-vs-predicted rows.
//!
//! The run doubles as a CI guard: the fitted γ must *strictly decrease*
//! as α grows — if a code change flattens the sweep (e.g. α stops
//! reaching the draw stream), the process exits non-zero.
//!
//! ```text
//! cargo run -p pa-bench --release --bin exp_nlpa_degree_dist -- --n 200000 --ranks 4
//! ```

use pa_analysis::powerlaw;
use pa_bench::{banner, csv_line, Args};
use pa_core::{par, partition::Scheme, Engine, GenOptions, PaConfig};
use pa_graph::degrees;

struct Row {
    alpha: f64,
    p_eff: f64,
    predicted: f64,
    mle: f64,
    slope: f64,
    r2: f64,
    max_degree: u64,
    secs: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.get_u64("n", 200_000);
    let x = args.get_u64("x", 4);
    let p = args.get_f64("p", 0.5);
    let ranks = args.get_u64("ranks", 4) as usize;
    let seed = args.get_u64("seed", 1);

    banner(
        "nlpa exponent sweep",
        "degree exponent γ as a function of the nlpa kernel exponent α",
    );
    println!("n = {n}, x = {x}, p = {p}, P = {ranks} (RRP, engine 3)\n");

    let cfg = PaConfig::new(n, x).with_p(p).with_seed(seed);
    let dmin = (2 * x).max(4);
    let alphas = [0.5f64, 1.0, 1.5];

    let mut rows = Vec::new();
    for alpha in alphas {
        let opts = GenOptions::default()
            .with_engine(Engine::Chain)
            .with_alpha(alpha);
        let start = std::time::Instant::now();
        let out = par::generate(&cfg, Scheme::Rrp, ranks, &opts);
        let secs = start.elapsed().as_secs_f64();
        let deg = degrees::degree_sequence(n as usize, &out.edge_list());
        let mle = powerlaw::fit_mle(&deg, dmin);
        let (slope_gamma, fit) = powerlaw::fit_loglog_slope(&deg, 2.0);
        let p_eff = p.powf(alpha);
        rows.push(Row {
            alpha,
            p_eff,
            predicted: 1.0 + 1.0 / (1.0 - p_eff),
            mle: mle.gamma,
            slope: slope_gamma,
            r2: fit.r2,
            max_degree: degrees::degree_stats(&deg).expect("non-empty degrees").max,
            secs,
        });
    }

    println!("csv,alpha,p_eff,gamma_predicted,gamma_mle,gamma_slope,r2,max_degree,seconds");
    for r in &rows {
        csv_line(&[
            &format!("{:.2}", r.alpha),
            &format!("{:.4}", r.p_eff),
            &format!("{:.3}", r.predicted),
            &format!("{:.3}", r.mle),
            &format!("{:.3}", r.slope),
            &format!("{:.3}", r.r2),
            &r.max_degree,
            &format!("{:.3}", r.secs),
        ]);
    }

    println!(
        "\ntheory: γ ≈ 1 + 1/(1 − p^α); the sweep must be strictly\n\
         monotone — larger α, heavier tail, smaller fitted γ."
    );

    let mut ok = true;
    for w in rows.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        if hi.mle >= lo.mle {
            eprintln!(
                "FAIL: MLE γ did not decrease from α = {} ({:.3}) to α = {} ({:.3})",
                lo.alpha, lo.mle, hi.alpha, hi.mle
            );
            ok = false;
        }
        if hi.max_degree <= lo.max_degree {
            eprintln!(
                "FAIL: max degree did not grow from α = {} ({}) to α = {} ({})",
                lo.alpha, lo.max_degree, hi.alpha, hi.max_degree
            );
            ok = false;
        }
    }
    if !ok {
        eprintln!("nlpa exponent sweep violated monotonicity — α is not reaching the draws");
        std::process::exit(1);
    }
    println!("\nγ decreases strictly across the α sweep — nlpa exponent verified.");
}
