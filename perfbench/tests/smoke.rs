//! The benchmark's own tests, on the tiny input size:
//!
//! - every workload emits every named metric, with its unit, traced and
//!   untraced, and the names match `BENCHMARK.json`;
//! - the seed changes the generated inputs (and the same seed repeats
//!   them exactly);
//! - a digest mismatch fails the run loudly.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "internet-build",
    "metric-matrix",
    "engine-suite",
    "temporal-growth",
];

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    let out = scratch("out");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .args(extra)
        .output()
        .expect("benchmark runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("utf-8 stdout")
}

fn last_line(o: &Output) -> String {
    stdout(o).lines().last().expect("a result line").to_string()
}

/// The `inputs` digest from the summary line.
fn input_digest(o: &Output) -> String {
    let out = stdout(o);
    let line = out.lines().next().expect("summary line");
    let at = line.find("inputs ").expect("inputs digest") + "inputs ".len();
    line[at..at + 16].to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{}\"", section))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{}\"", key)).expect("key") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        rest[open..open + rest[open..].find('"').expect("value end")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let named = benchmark_metrics(section);
        assert!(!named.is_empty());
        for w in WORKLOADS {
            let o = run(w, 20030617, trace, &[]);
            assert!(o.status.success(), "{} trace={} failed: {:?}", w, trace, o);
            let line = last_line(&o);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{}",
                line
            );
            assert!(line.contains("\"failed\": 0,"), "{}", line);
            for (name, unit) in &named {
                let entry = format!("\"{}\": {{\"value\": ", name);
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} trace={}: no {}", w, trace, name));
                let rest = &line[at + entry.len()..];
                let value = &rest[..rest.find(',').expect("value ends")];
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{}: {} = {:?}", w, name, value));
                assert!(
                    rest.starts_with(&format!("{}, \"unit\": \"{}\"}}", value, unit)),
                    "{}: {} should have unit {}",
                    w,
                    name,
                    unit
                );
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                named.len(),
                "{} trace={} emits exactly the named metrics",
                w,
                trace
            );
        }
    }
}

#[test]
fn the_seed_changes_the_inputs() {
    for w in WORKLOADS {
        let a = input_digest(&run(w, 1, false, &[]));
        let b = input_digest(&run(w, 2, false, &[]));
        let again = input_digest(&run(w, 1, false, &[]));
        assert_ne!(a, b, "{}: seeds 1 and 2 built the same inputs", w);
        assert_eq!(a, again, "{}: seed 1 built different inputs twice", w);
    }
}

#[test]
fn a_digest_mismatch_fails_loudly() {
    let pins = scratch("pins").join("wrong-digests.txt");
    std::fs::write(&pins, "temporal-growth tiny 7 0123456789abcdef\n").expect("pins");
    let o = run(
        "temporal-growth",
        7,
        false,
        &["--digests", pins.to_str().unwrap()],
    );
    assert_eq!(o.status.code(), Some(1), "a digest mismatch must exit 1");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("DIGEST MISMATCH"), "stderr: {}", stderr);
    let line = last_line(&o);
    assert!(line.starts_with("{\"correct\": false"), "{}", line);
    assert!(!line.contains("\"failed\": 0,"), "{}", line);
}
