//! The one exhibit driver: every table, figure, ablation and extension of
//! the reproduction is an entry of [`bench::EXHIBITS`].
//!
//! ```sh
//! exhibit --list                              # ids, titles, captions
//! exhibit fig7 [--steps N] [--json PATH] [--check]
//! exhibit all  [--steps N] [--check]          # in order, results/<id>.json
//! ```
//!
//! `--steps` defaults per entry (10 for `fig9`, 8 elsewhere); `--check`
//! shrinks the sweeps that only repeat a shape.

use bench::{banner, usage_exit, Args, Cli, Exhibit, EXHIBITS};

const USAGE: &str = "--list | <id>|all [--steps N] [--json PATH] [--check]";

fn parse(e: &Exhibit, flags: &[String]) -> Cli {
    Cli::parse_from(flags, e.default_steps).unwrap_or_else(|msg| usage_exit(&msg, USAGE))
}

fn run(e: &Exhibit, cli: &Cli) {
    banner(e.title, e.caption);
    let body = (e.run)(&Args {
        steps: cli.steps,
        check: cli.check,
    });
    cli.maybe_write_json_text(&body);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((what, flags)) = argv.split_first() else {
        usage_exit("which exhibit?", USAGE);
    };
    match what.as_str() {
        "--list" => print!("{}", bench::exhibits::list()),
        "all" => {
            // Flags are the same for every entry: reject them before the first runs.
            if parse(&EXHIBITS[0], flags).json.is_some() {
                usage_exit("`all` writes results/<id>.json; --json takes one id", USAGE);
            }
            std::fs::create_dir_all("results").expect("create results/");
            for e in EXHIBITS {
                println!("\n================= {} =================", e.id);
                let json = Some(format!("results/{}.json", e.id));
                run(
                    e,
                    &Cli {
                        json,
                        ..parse(e, flags)
                    },
                );
            }
            println!("\nJSON data written to results/");
            println!("all {} exhibits regenerated.", EXHIBITS.len());
        }
        id => match EXHIBITS.iter().find(|e| e.id == id) {
            Some(e) => run(e, &parse(e, flags)),
            None => {
                let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
                usage_exit(
                    &format!("unknown exhibit {id:?}; known ids: {}", ids.join(", ")),
                    USAGE,
                );
            }
        },
    }
}
