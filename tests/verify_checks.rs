//! Tests of the `fasea-exp verify` shape checker: build a results tree
//! end-to-end with tiny experiments and confirm the checker reads it,
//! and confirm it rejects an empty/incomplete tree.

use fasea_experiments::{run_experiment, verify, Options};

#[test]
fn verify_fails_cleanly_on_missing_results() {
    let out = std::env::temp_dir().join("fasea_verify_empty");
    std::fs::remove_dir_all(&out).ok();
    std::fs::create_dir_all(&out).unwrap();
    let opts = Options {
        out_dir: out.clone(),
        ..Default::default()
    };
    let err = verify::verify(&opts).unwrap_err();
    assert!(err.contains("checks failed"));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn verify_reads_generated_artifacts() {
    // Generate a small subset of artefacts and confirm the relevant
    // checks at least execute against them (pass or fail — tiny
    // horizons cannot promise the paper's asymptotic shapes, the test
    // pins the plumbing, not the science).
    let out = std::env::temp_dir().join("fasea_verify_plumbing");
    std::fs::remove_dir_all(&out).ok();
    let opts = Options {
        horizon: 300,
        out_dir: out.clone(),
        seed: 7,
        threads: 1,
        real_rounds: 60,
        real_regret_rounds: 80,
        replications: 1,
        ..Default::default()
    };
    run_experiment("fig1", &opts).unwrap();
    let err = verify::verify(&opts).unwrap_err();
    // fig1 artefacts exist, so at most the other checks report SKIP;
    // the fig1 ordering check must NOT be a skip.
    assert!(!err.is_empty());
    // Check the CSVs were actually parsed: the kendall file must exist
    // and load.
    let kendall = fasea_sim::CsvTable::read(&out.join("fig2/default_kendall.csv")).unwrap();
    assert!(kendall.column_index("UCB").is_some());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn verify_passes_on_well_shaped_synthetic_csvs() {
    // Hand-craft a results tree with exactly the paper's shapes and
    // confirm every check passes — the positive control for the checker
    // itself.
    let out = std::env::temp_dir().join("fasea_verify_golden");
    std::fs::remove_dir_all(&out).ok();

    let header = ["t", "UCB", "TS", "eGreedy", "Exploit", "Random", "OPT"];
    let t_grid: Vec<f64> = (1..=20).map(|i| (i * 500) as f64).collect();

    // fig1 rewards: UCB≈Exploit > eGreedy > TS > Random.
    let rewards: Vec<Vec<f64>> = t_grid
        .iter()
        .map(|&t| vec![t, 0.9 * t, 0.3 * t, 0.8 * t, 0.9 * t, 0.1 * t, t])
        .collect();
    fasea_sim::write_csv(
        &out.join("fig1/default_total_rewards.csv"),
        &header,
        &rewards,
    )
    .unwrap();

    // fig1 regrets: TS peaks then drops hard.
    let regrets: Vec<Vec<f64>> = t_grid
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let ts = if i < 15 {
                100.0 * (i as f64 + 1.0)
            } else {
                300.0
            };
            vec![t, 10.0, ts, 50.0, 10.0, 2000.0, 0.0]
        })
        .collect();
    fasea_sim::write_csv(
        &out.join("fig1/default_total_regrets.csv"),
        &header,
        &regrets,
    )
    .unwrap();

    // fig2 kendall: UCB → 1, Random ≈ 0, TS mid.
    let kheader = ["t", "UCB", "TS", "eGreedy", "Exploit", "Random"];
    let kendall: Vec<Vec<f64>> = t_grid
        .iter()
        .map(|&t| vec![t, 0.95, 0.5, 0.9, 0.95, 0.02])
        .collect();
    fasea_sim::write_csv(&out.join("fig2/default_kendall.csv"), &kheader, &kendall).unwrap();

    // fig4: TS/UCB ≈ 1 at d1, much lower at d15.
    let ar_d1: Vec<Vec<f64>> = t_grid
        .iter()
        .map(|&t| vec![t, 0.99, 0.97, 0.9, 0.99, 0.5, 1.0])
        .collect();
    let ar_d15: Vec<Vec<f64>> = t_grid
        .iter()
        .map(|&t| vec![t, 0.6, 0.3, 0.55, 0.6, 0.1, 0.7])
        .collect();
    fasea_sim::write_csv(&out.join("fig4/d1_accept_ratio.csv"), &header, &ar_d1).unwrap();
    fasea_sim::write_csv(&out.join("fig4/d15_accept_ratio.csv"), &header, &ar_d15).unwrap();

    // fig6: cv100 drops, cv500 does not.
    let r100: Vec<Vec<f64>> = t_grid
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let ts = if i < 10 {
                50.0 * (i as f64 + 1.0)
            } else {
                100.0
            };
            vec![t, 5.0, ts, 20.0, 5.0, 800.0, 0.0]
        })
        .collect();
    let r500: Vec<Vec<f64>> = t_grid
        .iter()
        .enumerate()
        .map(|(i, &t)| vec![t, 5.0, 60.0 * (i as f64 + 1.0), 20.0, 5.0, 900.0, 0.0])
        .collect();
    fasea_sim::write_csv(&out.join("fig6/cv100_total_regrets.csv"), &header, &r100).unwrap();
    fasea_sim::write_csv(&out.join("fig6/cv500_total_regrets.csv"), &header, &r500).unwrap();

    // table7 (cu5): rows UCB, TS, eGreedy, Exploit, Random, Online, FK, cu.
    {
        let mut h = vec!["row".to_string()];
        h.extend((1..=19).map(|u| format!("u{u}")));
        let h_refs: Vec<&str> = h.iter().map(|s| s.as_str()).collect();
        let mut w =
            fasea_sim::CsvWriter::create(&out.join("table7/table7_cu5.csv"), &h_refs).unwrap();
        let mk = |name: &str, v: f64| {
            let mut row = vec![name.to_string()];
            row.extend((0..19).map(|_| format!("{v:.2}")));
            row
        };
        for (name, v) in [
            ("UCB", 0.9),
            ("TS", 0.3),
            ("eGreedy", 0.8),
            ("Exploit", 0.7),
            ("Random", 0.2),
            ("Online", 0.6),
            ("Full Kn.", 1.0),
            ("c_u", 5.0),
        ] {
            w.row(&mk(name, v)).unwrap();
        }
        w.finish().unwrap();
    }

    // fig11 basic.
    let basic: Vec<Vec<f64>> = t_grid
        .iter()
        .map(|&t| vec![t, 0.7 * t, 0.2 * t, 0.6 * t, 0.7 * t, 0.1 * t, 0.75 * t])
        .collect();
    fasea_sim::write_csv(&out.join("fig11/v500_total_rewards.csv"), &header, &basic).unwrap();

    let opts = Options {
        out_dir: out.clone(),
        ..Default::default()
    };
    verify::verify(&opts).expect("all checks should pass on golden-shaped data");
    std::fs::remove_dir_all(&out).ok();
}
