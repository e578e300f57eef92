//! End-to-end tests of the `pagen` command surface (driving [`pa_cli::run`]
//! directly, which is exactly what the binary does).

use pa_cli::run;

fn exec(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    match run(&argv, &mut out) {
        Ok(()) => Ok(String::from_utf8(out).unwrap()),
        Err(e) => Err(e.message().to_string()),
    }
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("pagen_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// The `{name}.part*` files left in the test directory, for each name.
fn parts_left(names: &[&str]) -> Vec<String> {
    std::fs::read_dir(tmp(""))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| {
            names
                .iter()
                .any(|name| f.starts_with(&format!("{name}.part")))
        })
        .collect()
}

#[test]
fn generate_analyze_info_pipeline() {
    let path = tmp("pipeline.pag");
    let gen = exec(&[
        "generate", "--model", "pa", "--n", "5000", "--x", "3", "--ranks", "4", "--scheme", "lcp",
        "--seed", "7", "--out", &path,
    ])
    .unwrap();
    assert!(gen.contains("5000 nodes"));
    assert!(gen.contains("pag"));

    let info = exec(&["info", "--in", &path]).unwrap();
    assert!(info.contains("nodes:  5000"));
    assert!(info.contains("4 shard(s)"));
    assert!(info.contains("model = preferential-attachment"));
    assert!(info.contains("scheme = LCP"));

    let report = exec(&["analyze", "--in", &path]).unwrap();
    assert!(report.contains("edges            14994"), "{report}");
    assert!(report.contains("components       1"));
    assert!(report.contains("power law"));
}

#[test]
fn generate_binary_and_text_formats() {
    for format in ["bin", "txt"] {
        let path = tmp(&format!("g.{format}"));
        exec(&[
            "generate", "--model", "pa", "--n", "500", "--x", "2", "--out", &path, "--format",
            format,
        ])
        .unwrap();
        let report = exec(&["analyze", "--in", &path, "--format", format, "--n", "500"]).unwrap();
        assert!(
            report.contains("edges            997"),
            "{format}: {report}"
        );
    }
}

#[test]
fn streamed_binary_output_matches_materialized_run() {
    // Every format streams each rank to its own part file. The bin|txt
    // file must hold exactly the edge set of the PAG container of the
    // same tuple and the reported count; both must replace (never append
    // to) an existing --out file, and no part files may remain. Engine 3
    // emits in label order, so its PAG payload behind the header is the
    // bin file byte for byte.
    for (format, ranks, engine) in [
        ("bin", "1", "2"),
        ("bin", "4", "2"),
        ("txt", "1", "2"),
        ("txt", "4", "2"),
        ("bin", "1", "3"),
        ("bin", "4", "3"),
        ("txt", "4", "3"),
    ] {
        let name = format!("streamed_p{ranks}_e{engine}.{format}");
        let pag_name = format!("streamed_p{ranks}_e{engine}.pag");
        let (out, pag) = (tmp(&name), tmp(&pag_name));
        let case = format!("{format} ranks {ranks} engine {engine}");
        // 16 bytes: one bogus binary edge, or an unparsable text line.
        std::fs::write(&out, b"stale output ...").unwrap();
        std::fs::write(&pag, b"stale output ...").unwrap();
        let common = [
            "--model", "pa", "--n", "3000", "--x", "3", "--ranks", ranks, "--scheme", "rrp",
            "--seed", "11", "--engine", engine,
        ];
        let mut gen: Vec<&str> = vec!["generate"];
        gen.extend_from_slice(&common);
        gen.extend_from_slice(&["--out", &out, "--format", format]);
        let msg = exec(&gen).unwrap();
        assert!(msg.contains("streamed"), "{case}: {msg}");

        let mut gen_pag: Vec<&str> = vec!["generate"];
        gen_pag.extend_from_slice(&common);
        gen_pag.extend_from_slice(&["--out", &pag, "--format", "pag"]);
        exec(&gen_pag).unwrap();

        let streamed = if format == "bin" {
            pa_graph::io::read_binary_file(&out)
        } else {
            pa_graph::io::read_text_file(&out)
        }
        .unwrap_or_else(|e| panic!("{case}: {e}"));
        let (_, shards) = pa_graph::container::read_file(&pag).unwrap();
        assert_eq!(shards.len(), ranks.parse::<usize>().unwrap(), "{case}");
        let from_pag = pa_graph::EdgeList::concat(shards);
        assert_eq!(streamed.canonicalized(), from_pag.canonicalized(), "{case}");
        if (format, engine) == ("bin", "3") {
            let (pag_bytes, bin_bytes) =
                (std::fs::read(&pag).unwrap(), std::fs::read(&out).unwrap());
            let header = pag_bytes.len() - bin_bytes.len();
            assert_eq!(
                &pag_bytes[header..],
                &bin_bytes[..],
                "{case}: PAG payload is not the bin file"
            );
        }
        let reported = msg
            .split_whitespace()
            .find_map(|w| w.parse::<u64>().ok().filter(|&e| e > 3000))
            .unwrap();
        assert_eq!(reported, streamed.len() as u64, "{case}");

        let parts = parts_left(&[&name, &pag_name]);
        assert!(
            parts.is_empty(),
            "{case}: part files left behind: {parts:?}"
        );
    }
}

#[test]
fn out_symlink_is_replaced_not_written_through() {
    // `--out` names the finished file: a symlink already there is
    // replaced by it, and the file the link pointed at is left alone.
    for (model, format) in [("pa", "pag"), ("cl", "pag"), ("cl", "bin"), ("cl", "txt")] {
        let case = format!("{model} {format}");
        let target = tmp(&format!("link_target_{model}_{format}"));
        let name = format!("link_{model}.{format}");
        let link = tmp(&name);
        std::fs::write(&target, b"keep me").unwrap();
        let _ = std::fs::remove_file(&link);
        std::os::unix::fs::symlink(&target, &link).unwrap();
        exec(&[
            "generate", "--model", model, "--n", "2000", "--out", &link, "--format", format,
        ])
        .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(
            std::fs::read(&target).unwrap(),
            b"keep me",
            "{case}: wrote through the link"
        );
        let meta = std::fs::symlink_metadata(&link).unwrap();
        assert!(
            meta.file_type().is_file(),
            "{case}: --out is not a regular file"
        );
        let parts = parts_left(&[&name]);
        assert!(
            parts.is_empty(),
            "{case}: part files left behind: {parts:?}"
        );
    }
}

#[test]
fn all_models_generate() {
    for (model, extra) in [
        ("pa", vec!["--x", "3"]),
        ("nlpa", vec!["--x", "3", "--alpha", "0.5"]),
        ("cl", vec!["--gamma", "3.0", "--x", "3"]),
    ] {
        let path = tmp(&format!("{model}.pag"));
        let mut args = vec!["generate", "--model", model, "--n", "2000", "--out", &path];
        args.extend(extra.iter());
        let msg = exec(&args).unwrap_or_else(|e| panic!("{model}: {e}"));
        assert!(msg.contains("2000 nodes"), "{model}: {msg}");
        let info = exec(&["info", "--in", &path]).unwrap();
        assert!(info.contains("attr:   model"), "{model}: {info}");
        assert!(info.contains("in 4 shard(s)"), "{model}: {info}");
    }
}

/// `--model cl` at n = 20 000, mean degree 3, gamma 3, seed 7.
const CL_TUPLE: [&str; 12] = [
    "generate", "--model", "cl", "--n", "20000", "--x", "3", "--gamma", "3.0", "--seed", "7",
    "--out",
];

#[test]
fn cl_bytes_are_pinned_and_independent_of_ranks() {
    // Each rank samples a contiguous block of rows in row order, so the
    // parts joined in rank order are the sequential row order.
    let files: Vec<Vec<u8>> = ["1", "3", "8"]
        .iter()
        .map(|ranks| {
            let path = tmp(&format!("cl_pinned_{ranks}.bin"));
            let mut args = CL_TUPLE.to_vec();
            args.extend([path.as_str(), "--format", "bin", "--ranks", ranks]);
            exec(&args).unwrap();
            std::fs::read(&path).unwrap()
        })
        .collect();
    assert_eq!(files[0].len(), 481_888);
    assert!(files[1] == files[0], "--ranks 3 differs from --ranks 1");
    assert!(files[2] == files[0], "--ranks 8 differs from --ranks 1");
    assert_eq!(
        pa_graph::io::Fnv1a::hash(&files[0]),
        0xae39_1a2a_aefd_569c,
        "cl bytes moved"
    );

    // A PAG container holds one shard per rank, the bin bytes behind it.
    let pag = tmp("cl_pinned_3.pag");
    let mut args = CL_TUPLE.to_vec();
    args.extend([pag.as_str(), "--format", "pag", "--ranks", "3"]);
    exec(&args).unwrap();
    let (_, shards) = pa_graph::container::read_file(&pag).unwrap();
    assert_eq!(shards.len(), 3);
    let pag_bytes = std::fs::read(&pag).unwrap();
    assert!(pag_bytes.len() > files[0].len());
    assert!(
        pag_bytes[pag_bytes.len() - files[0].len()..] == files[0][..],
        "PAG payload is not the bin file"
    );
}

#[test]
fn bad_cl_flags_are_usage_errors_not_panics() {
    let out = tmp("bad_cl.bin");
    for (flag, value, needle) in [
        ("--gamma", "2.0", "--gamma must be above 2"),
        ("--gamma", "nan", "--gamma must be above 2"),
        ("--x", "0", "--x (cl's mean degree) must be at least 1"),
        ("--n", "0", "--n must be at least 1"),
        ("--ranks", "0", "--ranks must be at least 1"),
    ] {
        let args = [
            "generate", "--model", "cl", "--n", "1000", flag, value, "--out", &out, "--format",
            "bin",
        ];
        let outcome = std::panic::catch_unwind(|| exec(&args));
        let err = match outcome {
            Ok(Err(err)) => err,
            Ok(Ok(msg)) => panic!("{flag} {value} was accepted: {msg}"),
            Err(_) => panic!("{flag} {value} panicked"),
        };
        assert!(err.contains(needle), "{flag} {value}: {err:?}");
    }
    assert!(parts_left(&["bad_cl.bin"]).is_empty());
}

#[test]
fn chains_prints_theorem_bounds() {
    let out = exec(&["chains", "--n", "100000", "--p", "0.5"]).unwrap();
    assert!(out.contains("dependency: mean"));
    assert!(out.contains("bound 1/p"));
    assert!(out.contains("selection:"));
}

#[test]
fn help_lists_commands() {
    let out = exec(&["help"]).unwrap();
    for cmd in ["generate", "analyze", "info", "chains"] {
        assert!(out.contains(cmd));
    }
}

#[test]
fn error_paths_are_user_facing() {
    // Unknown command.
    let err = exec(&["frobnicate"]).unwrap_err();
    assert!(err.contains("unknown command"));
    // Unknown model.
    let err = exec(&["generate", "--model", "nope"]).unwrap_err();
    assert!(err.contains("unknown model"));
    // Typo'd flag.
    let err = exec(&["chains", "--nn", "5"]).unwrap_err();
    assert!(err.contains("unknown flag"));
    // Bad scheme.
    let err = exec(&["generate", "--scheme", "zigzag"]).unwrap_err();
    assert!(err.contains("unknown scheme"));
    // Missing required flag.
    let err = exec(&["analyze"]).unwrap_err();
    assert!(err.contains("--in"));
    // Degenerate model parameters.
    let err = exec(&["generate", "--n", "3", "--x", "5"]).unwrap_err();
    assert!(err.contains("n > x"));
    // Missing file.
    let err = exec(&["info", "--in", &tmp("does_not_exist.pag")]).unwrap_err();
    assert!(err.contains("i/o error"));
}

#[test]
fn analyze_rejects_undersized_n() {
    let path = tmp("undersized.bin");
    exec(&[
        "generate", "--model", "pa", "--n", "100", "--x", "1", "--out", &path, "--format", "bin",
    ])
    .unwrap();
    let err = exec(&["analyze", "--in", &path, "--format", "bin", "--n", "5"]).unwrap_err();
    assert!(err.contains("smaller than the largest"));
}

#[test]
fn analyze_names_the_container_and_the_shard_that_runs_short() {
    let path = tmp("truncated.pag");
    exec(&[
        "generate", "--model", "pa", "--n", "1000", "--x", "2", "--ranks", "2", "--out", &path,
    ])
    .unwrap();
    let (_, counts) = pa_graph::container::read_meta_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Half of the last edge goes missing.
    std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
    let err = exec(&["analyze", "--in", &path]).unwrap_err();
    let want = format!(
        "i/o error: {path}: shard 1 ends after {} of its {} edges",
        counts[1] - 1,
        counts[1]
    );
    assert_eq!(err, want);
}

#[test]
fn pa_generation_via_cli_is_reproducible() {
    let a = tmp("repro_a.pag");
    let b = tmp("repro_b.pag");
    for path in [&a, &b] {
        exec(&[
            "generate", "--model", "pa", "--n", "3000", "--x", "1", "--seed", "99", "--out", path,
        ])
        .unwrap();
    }
    let (_, sa) = pa_graph::container::read_file(&a).unwrap();
    let (_, sb) = pa_graph::container::read_file(&b).unwrap();
    let ea = pa_graph::EdgeList::concat(sa).canonicalized();
    let eb = pa_graph::EdgeList::concat(sb).canonicalized();
    assert_eq!(ea, eb);
}

#[test]
fn pa_tuning_flags_do_not_change_the_network() {
    // The engine knobs (buffering, cadence, hub cache) are pure
    // performance levers; the generated network must be identical.
    let base = tmp("tuned_base.pag");
    let tuned = tmp("tuned_knobs.pag");
    exec(&[
        "generate", "--model", "pa", "--n", "4000", "--x", "3", "--seed", "13", "--ranks", "4",
        "--out", &base,
    ])
    .unwrap();
    exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "4000",
        "--x",
        "3",
        "--seed",
        "13",
        "--ranks",
        "4",
        "--buffer-cap",
        "64",
        "--service-interval",
        "16",
        "--hub-cache",
        "off",
        "--out",
        &tuned,
    ])
    .unwrap();
    let (_, sa) = pa_graph::container::read_file(&base).unwrap();
    let (_, sb) = pa_graph::container::read_file(&tuned).unwrap();
    assert_eq!(
        pa_graph::EdgeList::concat(sa).canonicalized(),
        pa_graph::EdgeList::concat(sb).canonicalized()
    );
}

#[test]
fn hub_cache_flag_accepts_off_and_rejects_garbage() {
    let path = tmp("huboff.pag");
    exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--x",
        "2",
        "--hub-cache",
        "off",
        "--out",
        &path,
    ])
    .unwrap();
    // A node count is rejected: that form lost to the better of auto
    // and off in every measured cell (EXPERIMENTS.md).
    for bad in ["sometimes", "1000"] {
        let err = exec(&[
            "generate",
            "--model",
            "pa",
            "--n",
            "1000",
            "--hub-cache",
            bad,
            "--out",
            &path,
        ])
        .unwrap_err();
        assert!(
            err.contains(&format!("--hub-cache must be auto or off, got \"{bad}\"")),
            "{err}"
        );
    }
}

#[test]
fn chaos_profile_does_not_change_the_network() {
    // The acceptance invariant of the fault layer, end to end through the
    // CLI: a chaos run writes exactly the edges of the clean run. Every
    // rank computes engine 2's hub replica, and at n = 3000 the default
    // one covers every label, so the chaos run turns it off to put
    // request/resolved traffic on the wire for the faults to perturb.
    let clean = tmp("chaos_clean.pag");
    let chaos = tmp("chaos_faulty.pag");
    let stats = tmp("chaos_faulty.json");
    exec(&[
        "generate", "--model", "pa", "--n", "3000", "--x", "3", "--seed", "29", "--ranks", "4",
        "--out", &clean,
    ])
    .unwrap();
    exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "3000",
        "--x",
        "3",
        "--seed",
        "29",
        "--ranks",
        "4",
        "--chaos-profile",
        "aggressive",
        "--chaos-seed",
        "5",
        "--stall-timeout-ms",
        "60000",
        "--hub-cache",
        "off",
        "--stats-json",
        &stats,
        "--out",
        &chaos,
    ])
    .unwrap();
    let json = std::fs::read_to_string(&stats).unwrap();
    for zero in ["\"msgs_sent\": 0,", "\"faults_injected\": 0,"] {
        assert!(!json.contains(zero), "{zero} in {json}");
    }
    let (_, sa) = pa_graph::container::read_file(&clean).unwrap();
    let (_, sb) = pa_graph::container::read_file(&chaos).unwrap();
    assert_eq!(
        pa_graph::EdgeList::concat(sa).canonicalized(),
        pa_graph::EdgeList::concat(sb).canonicalized()
    );
}

#[test]
fn chaos_profile_rejects_garbage() {
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--chaos-profile",
        "catastrophic",
        "--out",
        &tmp("chaosbad.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--chaos-profile"), "{err}");
}

#[test]
fn zero_valued_tuning_flags_are_rejected() {
    for flag in ["--buffer-cap", "--service-interval"] {
        let err = exec(&[
            "generate",
            "--model",
            "pa",
            "--n",
            "1000",
            flag,
            "0",
            "--out",
            &tmp("zero.pag"),
        ])
        .unwrap_err();
        assert!(err.contains(flag), "{flag}: {err}");
    }
}

#[test]
fn engine3_produces_the_same_network_as_engine2() {
    // --engine selects the strategy, never the result: engines 2 and 3
    // must write byte-identical edge sets (and bcp must be accepted).
    let e2 = tmp("engine2.bin");
    let e3 = tmp("engine3.bin");
    let common = [
        "--model", "pa", "--n", "4000", "--x", "3", "--ranks", "4", "--scheme", "bcp", "--seed",
        "23", "--format", "bin",
    ];
    for (engine, path) in [("2", &e2), ("3", &e3)] {
        let mut argv: Vec<&str> = vec!["generate"];
        argv.extend_from_slice(&common);
        argv.extend_from_slice(&["--engine", engine, "--out", path]);
        let msg = exec(&argv).unwrap();
        assert!(msg.contains("4000 nodes"), "{msg}");
    }
    let a = pa_graph::io::read_binary_file(&e2).unwrap();
    let b = pa_graph::io::read_binary_file(&e3).unwrap();
    assert_eq!(a.canonicalized(), b.canonicalized());
}

#[test]
fn engine_flag_rejects_bad_values() {
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--engine",
        "4",
        "--out",
        &tmp("e4.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--engine"), "{err}");

    // Engine 1 is the x = 1 specialization; any other x must be refused.
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--n",
        "1000",
        "--x",
        "3",
        "--engine",
        "1",
        "--out",
        &tmp("e1.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("x"), "{err}");
}

#[test]
fn nlpa_alpha_one_matches_pa() {
    // --model nlpa --alpha 1.0 must route through the same draw stream
    // as --model pa: same edge set through engine 2 (whose streamed byte
    // order varies with thread timing), byte-identical files through the
    // communication-free engine 3 (whose commit order is label order).
    let common = [
        "--n", "2000", "--x", "3", "--ranks", "4", "--scheme", "rrp", "--seed", "9", "--format",
        "bin",
    ];
    let run_one = |model_flags: &[&str], engine: &str, out: &str| {
        let mut argv: Vec<&str> = vec!["generate"];
        argv.extend_from_slice(model_flags);
        argv.extend_from_slice(&common);
        argv.extend_from_slice(&["--engine", engine, "--out", out]);
        exec(&argv).unwrap();
    };
    for engine in ["2", "3"] {
        let pa = tmp(&format!("nlpa_vs_pa_pa_e{engine}.bin"));
        let nl = tmp(&format!("nlpa_vs_pa_nl_e{engine}.bin"));
        run_one(&["--model", "pa"], engine, &pa);
        run_one(&["--model", "nlpa", "--alpha", "1.0"], engine, &nl);
        let a = pa_graph::io::read_binary_file(&pa).unwrap();
        let b = pa_graph::io::read_binary_file(&nl).unwrap();
        assert_eq!(a.canonicalized(), b.canonicalized(), "engine {engine}");
        if engine == "3" {
            assert_eq!(
                std::fs::read(&pa).unwrap(),
                std::fs::read(&nl).unwrap(),
                "engine 3 streams in label order; files must match byte-for-byte"
            );
        }
    }
}

#[test]
fn nlpa_records_its_exponent_in_the_container() {
    let path = tmp("nlpa_meta.pag");
    let msg = exec(&[
        "generate", "--model", "nlpa", "--alpha", "1.5", "--n", "3000", "--x", "2", "--ranks", "2",
        "--seed", "3", "--out", &path,
    ])
    .unwrap();
    assert!(msg.contains("generated nlpa"), "{msg}");
    let info = exec(&["info", "--in", &path]).unwrap();
    assert!(info.contains("nonlinear-preferential-attachment"), "{info}");
    assert!(info.contains("alpha = 1.5"), "{info}");
}

#[test]
fn nlpa_works_through_every_engine() {
    // Engines 2 and 3 must agree on the nlpa edge set; engine 1 runs the
    // x = 1 specialization of the same model.
    let e2 = tmp("nlpa_e2.bin");
    let e3 = tmp("nlpa_e3.bin");
    for (engine, out) in [("2", &e2), ("3", &e3)] {
        exec(&[
            "generate", "--model", "nlpa", "--alpha", "0.5", "--n", "4000", "--x", "2", "--ranks",
            "4", "--seed", "5", "--engine", engine, "--out", out, "--format", "bin",
        ])
        .unwrap();
    }
    let a = pa_graph::io::read_binary_file(&e2).unwrap();
    let b = pa_graph::io::read_binary_file(&e3).unwrap();
    assert_eq!(a.canonicalized(), b.canonicalized());

    let msg = exec(&[
        "generate",
        "--model",
        "nlpa",
        "--alpha",
        "1.5",
        "--n",
        "1000",
        "--x",
        "1",
        "--ranks",
        "2",
        "--engine",
        "1",
        "--out",
        &tmp("nlpa_e1.pag"),
    ])
    .unwrap();
    assert!(msg.contains("1000 nodes"), "{msg}");
}

#[test]
fn nlpa_rejects_bad_alpha_values() {
    for (alpha, needle) in [("-1.0", "non-negative"), ("nan", "NaN"), ("inf", "finite")] {
        let err = exec(&[
            "generate",
            "--model",
            "nlpa",
            "--alpha",
            alpha,
            "--n",
            "100",
            "--x",
            "1",
            "--out",
            &tmp("nlpa_bad.pag"),
        ])
        .unwrap_err();
        assert!(err.contains(needle), "alpha {alpha}: {err}");
        assert!(err.contains("--alpha"), "alpha {alpha}: {err}");
    }
    // Not a number at all: the flag parser's own diagnostic.
    let err = exec(&[
        "generate",
        "--model",
        "nlpa",
        "--alpha",
        "fast",
        "--n",
        "100",
        "--x",
        "1",
        "--out",
        &tmp("nlpa_bad.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--alpha must be a number"), "{err}");
}

#[test]
fn alpha_without_nlpa_is_flagged_as_unknown() {
    let err = exec(&[
        "generate",
        "--model",
        "pa",
        "--alpha",
        "1.5",
        "--n",
        "100",
        "--x",
        "1",
        "--out",
        &tmp("pa_alpha.pag"),
    ])
    .unwrap_err();
    assert!(err.contains("--alpha"), "{err}");
}

#[test]
fn chain_memo_rejects_non_integer_values() {
    for bad in ["-1", "many", "1.5"] {
        let err = exec(&[
            "generate",
            "--model",
            "pa",
            "--n",
            "100",
            "--x",
            "1",
            "--chain-memo",
            bad,
            "--out",
            &tmp("memo_bad.pag"),
        ])
        .unwrap_err();
        assert!(
            err.contains("--chain-memo must be an integer"),
            "{bad}: {err}"
        );
    }
}

#[test]
fn info_plans_engine3_chain_memo_as_allocated() {
    // Engine 3's memo is allocated up front on every rank of a
    // multi-rank world: rows of x u32 cells for the lowest `cap` labels
    // the rank does not own, planned for the rank that owns the fewest.
    // At the gen-e3-paged tuple that is each rank's 250 000 remote
    // labels, 250 000 · 4 · 4 B = 4 000 000 B; a single rank reads no
    // remote row and allocates none.
    let plan = |memo: &str, ranks: &str| {
        exec(&[
            "info",
            "--n",
            "500000",
            "--x",
            "4",
            "--ranks",
            ranks,
            "--engine",
            "3",
            "--chain-memo",
            memo,
        ])
        .unwrap()
    };
    let line = |bytes: &str| format!("  {:<28} {:>14}\n", "chain memo (allocated)", bytes);
    let default = plan("1048576", "2");
    assert!(default.contains(&line("3.8 MiB")), "{default}");
    let prefix = plan("100000", "2");
    assert!(prefix.contains(&line("1.5 MiB")), "{prefix}");
    let off = plan("0", "2");
    assert!(off.contains(&line("0 B")), "{off}");
    let single = plan("1048576", "1");
    assert!(single.contains(&line("0 B")), "{single}");
}

#[test]
fn info_plans_engine2_memory_from_its_actual_state() {
    // The estimate mode, pinned by value: engine 2 keeps the F table
    // (4-byte cells, as every label fits; the only table
    // `--memory-budget` pages, so it gets the whole budget), a one-byte
    // outstanding-request tag per node, one waiter bit per slot and the
    // hub replica. `tests/heap.rs` holds the total to the heap the engine
    // really uses.
    let plan = [
        "info", "--n", "2000000", "--x", "4", "--ranks", "2", "--engine", "2",
    ];
    let resident = exec(&plan).unwrap();
    let want = "\
per-rank memory estimate: n=2000000 x=4 ranks=2 scheme=RRP engine=2
largest rank: 1000000 nodes (4000000 F slots)
  F table (x slots/node)             15.3 MiB
  request tags (1 B/node)           976.6 KiB
  waiter bitmap (1 bit/slot)        488.3 KiB
  hub cache (replicated)            128.0 KiB
total: 16.8 MiB resident (add --memory-budget <bytes[k|m|g]> to see the paged plan)
";
    assert_eq!(resident, want);

    let paged = exec(&[&plan[..], &["--memory-budget", "8m"]].concat()).unwrap();
    assert!(
        paged.contains("  F table (x slots/node)             15.3 MiB          8.0 MiB paged\n"),
        "{paged}"
    );
    assert!(
        paged.ends_with("total: 16.8 MiB resident | 9.6 MiB under --memory-budget 8.0 MiB\n"),
        "{paged}"
    );
    assert_eq!(paged.matches("paged").count(), 1, "only F pages:\n{paged}");

    // Engine 1: the same shape at one slot per node. A 64 KiB budget is
    // sixteen frames of one 4 KiB page each; the paged line adds the page
    // index, 4 B for each of the table's 977 pages.
    let x1_plan = |budget: &str| {
        exec(&[
            "info",
            "--n",
            "2000000",
            "--x",
            "1",
            "--ranks",
            "2",
            "--engine",
            "1",
            "--memory-budget",
            budget,
        ])
        .unwrap()
    };
    let x1 = x1_plan("64k");
    assert!(
        x1.contains("  F table (1 slot/node)               3.8 MiB         67.8 KiB paged\n"),
        "{x1}"
    );
    assert!(
        x1.contains("  waiter bitmap (1 bit/node)        122.1 KiB\n"),
        "{x1}"
    );
    assert!(
        x1.ends_with("total: 3.9 MiB resident | 189.9 KiB under --memory-budget 64.0 KiB\n"),
        "{x1}"
    );
    // A budget below two pages (8 KiB) is raised to the cache's
    // two-page minimum.
    let x1 = x1_plan("6k");
    assert!(
        x1.contains("  F table (1 slot/node)               3.8 MiB         11.8 KiB paged\n"),
        "{x1}"
    );
    assert!(
        x1.ends_with("total: 3.9 MiB resident | 133.9 KiB under --memory-budget 6.0 KiB\n"),
        "{x1}"
    );
}

#[test]
fn info_plans_a_paged_run_with_its_page_size() {
    // The gen-e3-paged tuple, `--page-bytes` and all. The paged line
    // counts whole frames of one 16 KiB page each: its 4 MiB budget buys
    // 256, of which the 3.8 MiB table of 4-byte cells fills 245, plus
    // 4 B of page index per page — 245 · 16384 + 245 · 4 = 4015060 B,
    // just over the table itself.
    let plan = |budget: &str, page: &str| {
        exec(&[
            "info",
            "--n",
            "500000",
            "--x",
            "4",
            "--ranks",
            "2",
            "--engine",
            "3",
            "--memory-budget",
            budget,
            "--page-bytes",
            page,
        ])
    };
    let want = "\
per-rank memory estimate: n=500000 x=4 ranks=2 scheme=RRP engine=3
largest rank: 250000 nodes (1000000 F slots)
  F table (x slots/node)              3.8 MiB          3.8 MiB paged
  chain memo (allocated)              3.8 MiB
total: 7.6 MiB resident | 7.6 MiB under --memory-budget 4.0 MiB
";
    assert_eq!(plan("4194304", "16384").unwrap(), want);
    // A budget that is not a whole number of frames rounds down:
    // 100000 B buys six, 6 · 16384 + 245 · 4 = 99284 B.
    let part = plan("100000", "16k").unwrap();
    assert!(
        part.contains("  F table (x slots/node)              3.8 MiB         97.0 KiB paged\n"),
        "{part}"
    );
    // A page size `generate` would refuse is refused here too.
    for bad in ["0", "12"] {
        let err = plan("4m", bad).unwrap_err();
        assert!(err.contains("--page-bytes must be"), "{bad}: {err}");
    }
}
