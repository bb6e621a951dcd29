//! `fasea-exp` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! fasea-exp <experiment> [--t N] [--out DIR] [--seed S] [--threads N]
//!           [--real-rounds N] [--real-regret-rounds N] [--reps N]
//!           [--oracle greedy|tabu] [--churn N]
//!
//! experiments: fig1 fig2 fig3 … fig13 table5 table6 table7
//!              ext1 ext2 verify plots all
//! ```

#![forbid(unsafe_code)]

use fasea_experiments::{
    bench_check, multi_user_cmd, run_experiment, serve_cmd, Options, ALL_EXPERIMENTS,
};

fn print_usage() {
    eprintln!(
        "usage: fasea-exp <experiment> [--t N] [--out DIR] [--seed S] [--threads N] \
         [--real-rounds N] [--real-regret-rounds N] [--reps N] [--oracle greedy|tabu] \
         [--churn N]\n\
         experiments: {} verify plots all\n\
         defaults: --t 100000 (the paper's horizon), --out results, 1000/10000 real rounds, 1 rep\n\
         --threads fans experiment cells out (each round scores on its cell's thread)\n\
         --oracle picks the arrangement oracle (greedy = the paper's Algorithm 2);\n\
         --churn N closes/shrinks/re-opens one event every N rounds (0 = static universe)\n\
         network service:\n\
         fasea-exp serve   [--addr H:P] [--dir DIR] [--seed S] [--events N] [--dim D]\n\
                           [--workers N] [--policy ucb|ts|egreedy]\n\
                           [--fsync always|everyn|never]\n\
                           [--snapshot-every N] [--shards N] [--oracle greedy|tabu]\n\
                           [--churn N] [--churn-horizon H] [--pipeline-depth N]\n\
         fasea-exp loadgen [--addr H:P] [--rounds N] [--clients N] [--seed S] [--events N]\n\
                           [--dim D] [--policy P] [--users N] [--verify-local 1] [--shutdown 1]\n\
                           [--oracle greedy|tabu] [--churn N] [--churn-horizon H]\n\
         personalized model store:\n\
         fasea-exp multi-user [--users N] [--t N] [--events N] [--dim D] [--seed S]\n\
                           [--heterogeneity H] [--policy multi-ucb|multi-ts]\n\
                           [--budget-mb M] [--warm-budget-kb K] [--spill-dir DIR]\n\
                           [--verify-determinism 1]\n\
         fasea-exp check-bench [FILE...]   validate BENCH_*.json result tables",
        ALL_EXPERIMENTS.join(" ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let id = args[0].clone();
    // The serving and checking subcommands take their own flag sets.
    if id == "serve" || id == "loadgen" || id == "check-bench" || id == "multi-user" {
        let result = match id.as_str() {
            "serve" => serve_cmd::serve_main(&args[1..]),
            "loadgen" => serve_cmd::loadgen_main(&args[1..]),
            "multi-user" => multi_user_cmd::multi_user_main(&args[1..]),
            _ => bench_check::check_bench_main(&args[1..]),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut opts = Options::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        let parse_u64 = |v: &str| {
            v.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("invalid number '{v}' for {flag}");
                std::process::exit(2);
            })
        };
        match flag {
            "--t" => opts.horizon = parse_u64(&value),
            "--seed" => opts.seed = parse_u64(&value),
            "--threads" => opts.threads = parse_u64(&value) as usize,
            "--real-rounds" => opts.real_rounds = parse_u64(&value),
            "--real-regret-rounds" => opts.real_regret_rounds = parse_u64(&value),
            "--reps" => opts.replications = parse_u64(&value) as u32,
            "--out" => opts.out_dir = value.clone().into(),
            "--oracle" => {
                opts.oracle = fasea_bandit::OracleOptions::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown oracle '{value}' (greedy|tabu)");
                    std::process::exit(2);
                })
            }
            "--churn" => opts.churn_period = parse_u64(&value),
            other => {
                eprintln!("unknown flag {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let started = std::time::Instant::now();
    match run_experiment(&id, &opts) {
        Ok(()) => {
            println!(
                "done: {id} in {:.1}s — output under {}",
                started.elapsed().as_secs_f64(),
                opts.out_dir.display()
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(1);
        }
    }
}
