//! `expctl` — the scenario driver.
//!
//! ```text
//! expctl --list
//! expctl --run e10 --seed 42 --json out/
//! expctl --all --threads 8 --scale golden --json out/
//! ```
//!
//! Every run is a pure function of `(scenario, scale, seed)`; `--threads`
//! only changes wall-clock, never bytes — `--all --threads 1` and
//! `--all --threads 8` write identical JSON files.

use hot_exp::registry::{self, run_all, RunCtx, Scale};
use hot_exp::report::{ExpReport, ExpStatus};
use hot_exp::SEED;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    list: bool,
    all: bool,
    run: Vec<String>,
    seed: u64,
    scale: Scale,
    threads: usize,
    json_dir: Option<PathBuf>,
    snapshot_dir: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "\
expctl — run the E1-E20 scenario registry

USAGE:
  expctl --list                      list registered scenarios
  expctl --run <id> [options]        run one scenario (repeatable)
  expctl --all [options]             run every scenario

OPTIONS:
  --seed <u64>       base seed (default 20030617)
  --scale <s>        golden | full (default full; golden = small/CI sizes)
  --threads <n>      worker threads (default: all cores; never changes output)
  --json <dir>       write <dir>/<id>.json per scenario
  --snapshot-dir <d> cache built topologies as <d>/<key>.snap binary
                     snapshots; warm runs reload instead of regenerating
                     (wall-clock only, output bytes never change)
  --quiet            suppress the human-readable report text
  --help             this message
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        list: false,
        all: false,
        run: Vec::new(),
        seed: SEED,
        scale: Scale::Full,
        threads: hot_graph::parallel::default_threads(),
        json_dir: None,
        snapshot_dir: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{} requires a value", name))
        };
        match arg.as_str() {
            "--list" | "-l" => args.list = true,
            "--all" | "-a" => args.all = true,
            "--run" | "-r" => args.run.push(value("--run")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {:?}", v))?;
            }
            "--scale" => {
                let v = value("--scale")?;
                args.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("--scale expects golden|full, got {:?}", v))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                args.threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("--threads expects an integer, got {:?}", v))?
                    .max(1);
            }
            "--json" => args.json_dir = Some(PathBuf::from(value("--json")?)),
            "--snapshot-dir" => args.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir")?)),
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                print!("{}", USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {:?} (try --help)", other)),
        }
    }
    if !args.list && !args.all && args.run.is_empty() {
        return Err("nothing to do: pass --list, --run <id>, or --all (see --help)".into());
    }
    Ok(args)
}

fn write_json(dir: &Path, report: &ExpReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.scenario));
    std::fs::write(&path, report.to_json().pretty())?;
    Ok(path)
}

fn emit(report: &ExpReport, args: &Args) -> Result<(), String> {
    if !args.quiet {
        print!("{}", report.render_text());
        println!();
    }
    if let Some(dir) = &args.json_dir {
        let path = write_json(dir, report)
            .map_err(|e| format!("writing {}/{}.json: {}", dir.display(), report.scenario, e))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("expctl: {}", msg);
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        println!("{:<5} {:<18} {}", "id", "name", "summary");
        for spec in registry::registry() {
            println!("{:<5} {:<18} {}", spec.id, spec.name, spec.summary);
        }
        if !args.all && args.run.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    let ctx = RunCtx {
        scale: args.scale,
        seed: args.seed,
        threads: args.threads,
        snapshot_dir: args.snapshot_dir.clone(),
    };
    let reports: Vec<ExpReport> = if args.all {
        run_all(ctx.clone())
    } else {
        let mut out = Vec::new();
        for key in &args.run {
            match registry::find(key) {
                Some(spec) => out.push((spec.run)(ctx.clone())),
                None => {
                    let ids = registry::registry();
                    eprintln!(
                        "expctl: unknown scenario {:?}; ids are {}..{} (see --list)",
                        key,
                        ids[0].id,
                        ids[ids.len() - 1].id
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    let mut skipped = 0usize;
    for report in &reports {
        if let Err(msg) = emit(report, &args) {
            eprintln!("expctl: {}", msg);
            return ExitCode::FAILURE;
        }
        if matches!(report.status, ExpStatus::Skipped { .. }) {
            skipped += 1;
        }
    }
    eprintln!(
        "expctl: {} scenario(s) run ({} skipped), scale {}, seed {}, {} thread(s)",
        reports.len(),
        skipped,
        ctx.scale.label(),
        ctx.seed,
        ctx.threads
    );
    ExitCode::SUCCESS
}
