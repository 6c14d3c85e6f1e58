//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--digests <file>] [--out <dir>]
//! ```
//!
//! Builds the workload's inputs from the seed (several times, for
//! `setup_s`), then runs timed passes over them for `--seconds`
//! seconds, checking every output. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced passes and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A results file (and, traced, a trace file) goes to `--out`.
//!
//! Exit code 0 when every check passed, 1 when a check failed (the
//! result line is still printed), 2 on a usage error.

mod check;
mod json;
mod metrics;
mod sys;
mod trace;
mod workloads;

use check::{Checks, Digest, Pins};
use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sys::Stamp;
use trace::{Phase, Tracer};
use workloads::{Size, Workload};

/// The seed the recorded numbers use.
const DEFAULT_SEED: u64 = 20030617;
/// A seed no tuning looked at, kept for re-checking later claims.
const HELD_OUT_SEED: u64 = 8_675_309;
/// Set-up is timed in batches of back-to-back repeats lasting at least
/// `SETUP_BATCH_S` each, so that a set-up of microseconds still reads
/// steadily; `setup_s` is the median per-set-up time over the batches.
/// At least `MIN_BATCHES` run, and more until `SETUP_BUDGET_S` or
/// `MAX_BATCHES`.
const SETUP_BATCH_S: f64 = 0.01;
const MIN_BATCHES: usize = 3;
const MAX_BATCHES: usize = 15;
const SETUP_BUDGET_S: f64 = 0.5;

const PINNED: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    digests: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        digests: None,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = |what: &str| format!("{} {:?}: expected {}", flag, value, what);
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--size" => args.size = Size::parse(&value).ok_or_else(|| bad("full or tiny"))?,
            "--digests" => args.digests = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linearly interpolated percentile (`p` in 0..=100); 0 when empty.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// One timed pass.
struct PassRec {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    units: f64,
    step_ms: Vec<f64>,
    digest: Digest,
}

struct Harness<'a> {
    wl: Box<dyn Workload>,
    seed: u64,
    checks: Checks,
    setup_s: Vec<f64>,
    input_digest: Option<Digest>,
    setup_mismatches: usize,
    /// Records set-up spans in a traced run.
    setup_tracer: &'a Tracer,
}

impl Harness<'_> {
    /// Builds the inputs once, counting builds that differ from the
    /// first.
    fn setup(&mut self) {
        let tr = self.setup_tracer;
        let d = tr.run(Phase::Setup, || self.wl.setup(self.seed, tr));
        if d != *self.input_digest.get_or_insert(d) {
            self.setup_mismatches += 1;
        }
    }

    /// One timed batch of set-ups.
    fn setup_batch(&mut self) {
        let t0 = Instant::now();
        let mut reps = 0;
        while reps == 0 || t0.elapsed().as_secs_f64() < SETUP_BATCH_S {
            self.setup();
            reps += 1;
        }
        self.setup_s.push(t0.elapsed().as_secs_f64() / reps as f64);
    }

    fn pass(&mut self, tr: &Tracer) -> PassRec {
        let start = Stamp::now();
        let out = tr.run(Phase::Pass, || self.wl.pass(tr, &mut self.checks));
        let (wall_s, cpu_s) = start.elapsed();
        PassRec {
            traced: tr.enabled(),
            wall_s,
            cpu_s,
            units: out.units,
            step_ms: out.step_ms,
            digest: out.digest,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            return ExitCode::from(2);
        }
    };
    let pins = match &args.digests {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))
        }
        None => Ok(PINNED.to_string()),
    }
    .and_then(|text| Pins::parse(&text));
    let pins = match pins {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: digest pins: {}", e);
            return ExitCode::from(2);
        }
    };
    let threads = sys::nproc();
    let wl = workloads::make(&args.workload, args.size, threads).expect("known workload");
    let untraced = Tracer::new(false);
    let traced = Tracer::new(args.trace);
    let mut h = Harness {
        wl,
        seed: args.seed,
        checks: Checks::default(),
        setup_s: Vec::new(),
        input_digest: None,
        setup_mismatches: 0,
        setup_tracer: &traced,
    };

    let budget = Instant::now();
    while h.setup_s.len() < MIN_BATCHES
        || (budget.elapsed().as_secs_f64() < SETUP_BUDGET_S && h.setup_s.len() < MAX_BATCHES)
    {
        h.setup_batch();
    }

    // One warm-up pass fills caches and the allocator; its outputs are
    // checked like every other pass, its time is not used.
    let warm = h.pass(&untraced);

    // Timed phase: untraced passes, alternating with traced ones in a
    // traced run, for `--seconds` (at least one of each).
    let mut passes: Vec<PassRec> = Vec::new();
    let timed = Instant::now();
    loop {
        if h.wl.consumes_input() {
            h.setup();
        }
        let tr = if args.trace && passes.len() % 2 == 1 {
            &traced
        } else {
            &untraced
        };
        passes.push(h.pass(tr));
        let enough = timed.elapsed().as_secs_f64() >= args.seconds;
        if enough && (!args.trace || passes.len() >= 2) {
            break;
        }
    }

    // Every set-up must build the same inputs, every pass must produce
    // the same outputs, traced or not, and the outputs must match the
    // pinned digest for this seed, if one is.
    let mismatches = h.setup_mismatches;
    h.checks.check(mismatches == 0, || {
        format!("{} set-ups built different inputs", mismatches)
    });
    let digest = warm.digest;
    for (i, p) in passes.iter().enumerate() {
        h.checks.check(p.digest == digest, || {
            format!(
                "pass {} ({}) digest {} differs from the warm-up pass digest {}",
                i,
                if p.traced { "traced" } else { "untraced" },
                p.digest.hex(),
                digest.hex()
            )
        });
    }
    let size = args.size.label();
    if let Some(pinned) = pins.get(&args.workload, size, args.seed) {
        h.checks.check(pinned == digest.hex(), || {
            format!(
                "DIGEST MISMATCH: {} size {} seed {}: outputs digest {}, pinned {}",
                args.workload,
                size,
                args.seed,
                digest.hex(),
                pinned
            )
        });
    }

    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s)
            .collect()
    };
    let wall_s = median(&walls(false));
    let untraced_passes: Vec<&PassRec> = passes.iter().filter(|p| !p.traced).collect();
    let cpus: Vec<f64> = untraced_passes.iter().map(|p| p.cpu_s).collect();
    // A step percentile is taken within each pass, then its median over
    // the passes, so one disturbed pass cannot set it.
    let step_pct = |p: f64| -> f64 {
        let per_pass: Vec<f64> = untraced_passes
            .iter()
            .map(|pass| percentile(&pass.step_ms, p))
            .collect();
        median(&per_pass)
    };
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        metrics::per_layer(&traced, threads, median(&walls(true)), wall_s)
    } else {
        let values = [
            wall_s,
            median(&cpus),
            median(&h.setup_s),
            sys::peak_rss_mb(),
            passes[0].units / wall_s,
            step_pct(50.0),
            step_pct(90.0),
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    let checks = &h.checks;
    let input_digest = h.input_digest.expect("set up at least once");
    for f in &checks.failures {
        eprintln!("perfbench: CHECK FAILED: {}", f);
    }
    println!(
        "workload {} seed {} size {}: {} timed passes ({} traced), {} set-up batches, {} {} per pass, inputs {}, outputs {}",
        args.workload,
        args.seed,
        size,
        passes.len(),
        passes.iter().filter(|p| p.traced).count(),
        h.setup_s.len(),
        passes[0].units,
        h.wl.unit(),
        input_digest.hex(),
        digest.hex()
    );
    for (name, unit, v) in &metrics {
        println!("  {:<44} {:>16.6} {}", name, v, unit);
    }
    println!(
        "  {:<44} {:>16.6} ratio ({} of {} checks failed)",
        "check_fail_ratio",
        checks.ratio(),
        checks.failed,
        checks.attempted
    );

    let metrics_json = || {
        Json::Obj(
            metrics
                .iter()
                .map(|&(name, unit, v)| {
                    let m = Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]);
                    (name.to_string(), m)
                })
                .collect(),
        )
    };
    let num_list = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Num).collect());
    let record = Json::obj(vec![
        (
            "machine",
            Json::obj(vec![
                ("nproc", Json::Int(sys::nproc() as i64)),
                ("threads", Json::Int(threads as i64)),
                ("cpu_model", Json::str(sys::cpu_model())),
                ("rustc", Json::str(sys::RUSTC)),
                ("profile", Json::str(sys::PROFILE)),
            ]),
        ),
        ("workload", Json::str(&args.workload)),
        ("unit", Json::str(h.wl.unit())),
        ("seed", Json::Int(args.seed as i64)),
        ("default_seed", Json::Int(DEFAULT_SEED as i64)),
        ("held_out_seed", Json::Int(HELD_OUT_SEED as i64)),
        ("size", Json::str(size)),
        (
            "sizes",
            Json::Obj(
                h.wl.sizes()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("metrics", metrics_json()),
        ("check_fail_ratio", Json::Num(checks.ratio())),
        ("checks_attempted", Json::Int(checks.attempted as i64)),
        ("checks_failed", Json::Int(checks.failed as i64)),
        (
            "check_failures",
            Json::Arr(checks.failures.iter().map(Json::str).collect()),
        ),
        ("input_digest", Json::str(input_digest.hex())),
        ("output_digest", Json::str(digest.hex())),
        ("setup_s", num_list(h.setup_s.clone())),
        ("untraced_pass_s", num_list(walls(false))),
        ("traced_pass_s", num_list(walls(true))),
        ("pass_cpu_s", num_list(cpus.clone())),
    ]);
    let stem = format!(
        "{}-{}-seed{}-trace{}",
        args.workload, size, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|_| {
            std::fs::write(
                args.out.join(format!("{}.json", stem)),
                format!("{}\n", record),
            )
        })
        .and_then(|_| {
            if args.trace {
                let path = args.out.join(format!("{}.trace.json", stem));
                std::fs::write(path, format!("{}\n", traced.to_json()))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: writing results to {}: {}",
            args.out.display(),
            e
        );
        return ExitCode::from(2);
    }

    let correct = checks.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(checks.attempted as i64)),
        ("failed", Json::Int(checks.failed as i64)),
        ("metrics", metrics_json()),
    ]);
    println!("{}", result);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
