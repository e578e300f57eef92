//! Side-by-side comparison of the two random-graph models in the
//! workspace: preferential attachment (this paper) and Chung–Lu with a
//! power-law expected-degree target, which matches PA's heavy tail
//! without its growth process.
//!
//! ```text
//! cargo run -p pa-bench --release --example compare_models
//! ```

use pa_analysis::scaling::render_table;
use pa_core::{cl, par, partition::Scheme, GenOptions, PaConfig};
use pa_graph::{degrees, metrics, Csr, EdgeList};

fn describe(name: &str, n: usize, edges: &EdgeList) -> Vec<String> {
    let deg = degrees::degree_sequence(n, edges);
    let stats = degrees::degree_stats(&deg).unwrap();
    let csr = Csr::from_edges(n, edges);
    let assort = metrics::degree_assortativity(&csr)
        .map(|r| format!("{r:+.3}"))
        .unwrap_or_else(|| "n/a".into());
    let diam = metrics::double_sweep_diameter(&csr, 0)
        .map(|d| d.to_string())
        .unwrap_or_else(|| "n/a".into());
    vec![
        name.to_string(),
        edges.len().to_string(),
        format!("{:.1}", stats.mean),
        stats.max.to_string(),
        format!("{:.4}", metrics::transitivity(&csr)),
        assort,
        diam,
        csr.connected_components().to_string(),
    ]
}

fn main() {
    let n = 30_000u64;
    let mean_deg = 8.0;
    println!("comparing models at n = {n}, mean degree ≈ {mean_deg}\n");

    // Preferential attachment (x = mean/2 since each edge adds 2 stubs).
    let pa_cfg = PaConfig::new(n, (mean_deg / 2.0) as u64).with_seed(1);
    let pa = par::generate(&pa_cfg, Scheme::Rrp, 4, &GenOptions::default()).edge_list();

    // Chung–Lu with a power-law target.
    let cl_cfg = cl::ClConfig::new(cl::power_law_weights(n, 2.8, mean_deg), 1);
    let clg = EdgeList::concat(cl::generate_par(&cl_cfg, vec![EdgeList::new(); 4]));

    let rows = vec![
        describe("preferential attachment", n as usize, &pa),
        describe("Chung–Lu (γ=2.8)", n as usize, &clg),
    ];
    println!(
        "{}",
        render_table(
            &[
                "model",
                "edges",
                "mean deg",
                "max deg",
                "transitivity",
                "assortativity",
                "diam (≥)",
                "components",
            ],
            &rows
        )
    );
    println!(
        "signatures to look for: both models grow hubs (large max degree);\n\
         PA is connected by construction, while Chung–Lu strands low-weight\n\
         nodes outside its giant component."
    );
}
