//! Smoke tests for the experiment harness: every paper artefact
//! regenerates (at a tiny horizon) and emits non-empty CSV output.

use fasea_experiments::{run_experiment, Options};
use std::path::PathBuf;

fn tiny_opts(tag: &str) -> (Options, PathBuf) {
    let out = std::env::temp_dir().join(format!("fasea_exp_smoke_{tag}"));
    std::fs::remove_dir_all(&out).ok();
    (
        Options {
            horizon: 400,
            out_dir: out.clone(),
            seed: 12345,
            threads: 2,
            real_rounds: 120,
            real_regret_rounds: 200,
            replications: 1,
            oracle: fasea::bandit::OracleOptions::greedy(),
            churn_period: 0,
        },
        out,
    )
}

fn assert_csvs(dir: &std::path::Path, sub: &str, min_files: usize) {
    let d = dir.join(sub);
    let files: Vec<_> = std::fs::read_dir(&d)
        .unwrap_or_else(|e| panic!("{} missing: {e}", d.display()))
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "csv"))
        .collect();
    assert!(
        files.len() >= min_files,
        "{sub}: expected >= {min_files} csvs, found {}",
        files.len()
    );
    for f in files {
        let content = std::fs::read_to_string(f.path()).unwrap();
        assert!(
            content.lines().count() >= 2,
            "{:?} has no data rows",
            f.path()
        );
    }
}

#[test]
fn fig1_and_fig2() {
    let (opts, out) = tiny_opts("fig1");
    run_experiment("fig1", &opts).unwrap();
    assert_csvs(&out, "fig1", 4);
    assert_csvs(&out, "fig2", 1);
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig3_num_events() {
    let (opts, out) = tiny_opts("fig3");
    run_experiment("fig3", &opts).unwrap();
    assert_csvs(&out, "fig3", 8); // 2 cells x 4 metrics
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig7_conflicts() {
    let (opts, out) = tiny_opts("fig7");
    run_experiment("fig7", &opts).unwrap();
    assert_csvs(&out, "fig7", 16); // 4 cells x 4 metrics
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig9_param_sweeps() {
    let (opts, out) = tiny_opts("fig9");
    run_experiment("fig9", &opts).unwrap();
    assert_csvs(&out, "fig9", 40); // 10 cells x 4 metrics
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig10_real_user1() {
    let (opts, out) = tiny_opts("fig10");
    run_experiment("fig10", &opts).unwrap();
    assert_csvs(&out, "fig10", 4); // 2 modes x (accept + regret)
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig11_basic_bandit() {
    let (opts, out) = tiny_opts("fig11");
    run_experiment("fig11", &opts).unwrap();
    assert_csvs(&out, "fig11", 12); // 3 cells x 4 metrics
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn table5_efficiency() {
    let (opts, out) = tiny_opts("table5");
    run_experiment("table5", &opts).unwrap();
    assert_csvs(&out, "table5", 2); // time + memory
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn table7_all_users() {
    let (opts, out) = tiny_opts("table7");
    run_experiment("table7", &opts).unwrap();
    assert_csvs(&out, "table7", 2); // cu5 + cufull
                                    // Check structure: a row per algorithm + Full Kn. + c_u, 19 user
                                    // columns.
    let content = std::fs::read_to_string(out.join("table7/table7_cufull.csv")).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines[0].split(',').count(), 20); // "row" + u1..u19
    assert_eq!(lines.len(), 1 + 6 + 2); // header + 6 policies + FK + c_u
                                        // The c_u row must be the paper's numbers.
    let cu_row = lines.last().unwrap();
    assert!(cu_row.starts_with("c_u,12,26,11,10,15,22,16,7,22,11,13,19,23,11,11,7,9,13,17"));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig1_with_replications() {
    let (mut opts, out) = tiny_opts("reps");
    opts.replications = 3;
    run_experiment("fig1", &opts).unwrap();
    let content = std::fs::read_to_string(out.join("fig1/replications.csv")).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 1 + 3); // header + one row per replication
    assert!(lines[0].starts_with("rep,UCB,TS"));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn plots_subcommand_emits_gnuplot_scripts() {
    let (opts, out) = tiny_opts("plots");
    run_experiment("fig1", &opts).unwrap();
    run_experiment("plots", &opts).unwrap();
    assert!(out.join("fig1/default_total_regrets.gp").exists());
    assert!(out.join("fig2/default_kendall.gp").exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn unknown_experiment_is_an_error() {
    let (opts, _) = tiny_opts("unknown");
    let err = run_experiment("fig99", &opts).unwrap_err();
    assert!(err.contains("unknown experiment"));
}
