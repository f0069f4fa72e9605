//! Tiny-size runs of every workload: each metric `BENCHMARK.json` names is
//! printed, in the table and in the JSON line, with its unit.

use nwdp_obs::{parse_json, Json};
use std::process::Command;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the spec's `section`.
fn metrics(spec: &Json, section: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = spec.get(section) else { panic!("{section} missing") };
    items
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
        .args(["--size", "tiny"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    let json = parse_json(&last).expect("last line is JSON");
    (stdout, json)
}

fn assert_reports(workload: &str, trace: &str, section: &str) {
    let spec = spec();
    let (table, json) = run(workload, trace);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{table}");
    assert!(json.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(json.get("failed").and_then(Json::as_f64), Some(0.0));
    let got = json.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let want = metrics(&spec, section);
    assert_eq!(got.len(), want.len(), "{workload}: exactly the {section} metrics");
    for (name, unit) in want {
        let m = got.get(&name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
        let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{name}");
        if section == "end_to_end" {
            assert!(value > 0.0, "{workload}: {name} must never be 0");
        }
        let row = table.lines().find(|l| l.split_whitespace().next() == Some(&name));
        let row = row.unwrap_or_else(|| panic!("{workload}: no table row for {name}"));
        assert!(row.split_whitespace().nth(1) == Some(unit.as_str()), "{row}");
    }
    let desc = table.lines().next().expect("description line");
    for key in ["schema=", "commit=", "nproc=", "threads=", "shards=", "seed=3", "size=tiny"] {
        assert!(desc.contains(key), "{desc} lacks {key}");
    }
}

#[test]
fn stream_prints_every_metric() {
    assert_reports("stream", "0", "end_to_end");
    assert_reports("stream", "1", "per_layer");
}

#[test]
fn reload_prints_every_metric() {
    assert_reports("reload", "0", "end_to_end");
    assert_reports("reload", "1", "per_layer");
}

#[test]
fn nips_prints_every_metric() {
    assert_reports("nips", "0", "end_to_end");
    assert_reports("nips", "1", "per_layer");
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    for args in [&["--workload", "bogus"][..], &["--workload", "stream", "--trace", "2"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
}
