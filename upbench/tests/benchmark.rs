//! The benchmark's own test: `BENCHMARK.json` and the metric tables agree,
//! every workload records why it exists, every per-layer metric names the
//! end-to-end metrics it should move, and each workload, run at reduced
//! size, prints every metric with its unit (and, traced, writes a Chrome
//! trace-event file).

use std::path::{Path, PathBuf};
use std::process::Command;

use upbench::metrics::{Def, END_TO_END, PER_LAYER};
use upbench::WORKLOADS;

/// A parsed JSON value (just enough JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value();
    p.ws();
    assert_eq!(
        p.at,
        p.bytes.len(),
        "trailing characters after the JSON value"
    );
    value
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&c),
            "expected '{}' at byte {}",
            c as char,
            self.at
        );
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected '{}' in object", c as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected '{}' in array", c as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && b"+-0123456789.eE".contains(&self.bytes[self.at])
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.at..].starts_with(word.as_bytes()),
            "expected {word}"
        );
        self.at += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.bytes[self.at];
            self.at += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.bytes[self.at];
                    self.at += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.at..self.at + 4])
                                .expect("hex");
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                    .expect("char"),
                            );
                            self.at += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence this byte starts.
                    let start = self.at - 1;
                    let mut end = self.at;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).expect("UTF-8"));
                    self.at = end;
                }
            }
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    parse(&text)
}

fn assert_table_matches(entries: &[Json], defs: &[Def], with_bound: bool) {
    let names: Vec<&str> = entries.iter().map(|e| e.get("name").str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(
        names, expected,
        "BENCHMARK.json and metrics.rs list different metrics"
    );
    for (entry, def) in entries.iter().zip(defs) {
        let mut keys = vec!["name", "unit", "better"];
        if with_bound {
            keys.push("bound");
            let bound = entry.get("bound").num();
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{}: bound {bound} outside (0, 0.25]",
                def.name
            );
        }
        assert_eq!(entry.keys(), keys, "{}: unexpected keys", def.name);
        assert_eq!(entry.get("unit").str(), def.unit, "{}: unit", def.name);
        assert_eq!(
            entry.get("better").str(),
            def.better,
            "{}: better",
            def.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = benchmark_json();
    assert_table_matches(bench.get("end_to_end").arr(), END_TO_END, true);
    assert_table_matches(bench.get("per_layer").arr(), PER_LAYER, false);
    let setup = bench
        .get("end_to_end")
        .arr()
        .iter()
        .find(|e| e.get("name").str() == "setup_s");
    assert!(setup.is_some(), "setup_s is an end-to-end metric");
    let paths: Vec<&str> = bench.get("paths").arr().iter().map(Json::str).collect();
    assert_eq!(paths, ["upbench"]);
}

#[test]
fn every_workload_records_why_it_exists() {
    let bench = benchmark_json();
    let workloads = bench.get("workloads").arr();
    let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    assert_eq!(
        names, WORKLOADS,
        "BENCHMARK.json and the command list different workloads"
    );
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").str();
        assert!(
            !why.trim().is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why:?}"
        );
    }
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    for def in PER_LAYER {
        assert!(
            !def.moves.is_empty(),
            "{} names no end-to-end metric",
            def.name
        );
        for target in def.moves {
            assert!(
                end_to_end.contains(target),
                "{} moves unknown metric {target}",
                def.name
            );
        }
    }
    for def in END_TO_END {
        assert!(def.moves.is_empty(), "{} is end-to-end", def.name);
    }
}

/// Runs the command on `workload` at reduced size; returns the parsed
/// result line.
fn run_quick(workload: &str, trace: bool, trace_out: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_upbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(trace_out)
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn assert_prints_every_metric(result: &Json, defs: &[Def]) {
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    let metrics = result.get("metrics");
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(metrics.keys(), expected);
    for def in defs {
        let m = metrics.get(def.name);
        assert_eq!(m.keys(), ["value", "unit"], "{}", def.name);
        assert_eq!(m.get("unit").str(), def.unit, "{}", def.name);
        assert!(m.get("value").num().is_finite(), "{}", def.name);
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("upbench-test-traces");
    for workload in WORKLOADS {
        let trace_out = dir.join(format!("{workload}.json"));
        let plain = run_quick(workload, false, &trace_out);
        assert_prints_every_metric(&plain, END_TO_END);
        for def in END_TO_END {
            let value = plain.get("metrics").get(def.name).get("value").num();
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {} reads {value}",
                def.name
            );
        }

        let traced = run_quick(workload, true, &trace_out);
        assert_prints_every_metric(&traced, PER_LAYER);
        let trace =
            parse(&std::fs::read_to_string(&trace_out).expect("the traced run writes its trace"));
        let events = trace.get("traceEvents").arr();
        assert!(
            events
                .iter()
                .any(|e| e.get("name").str() == "execute" && e.get("ph").str() == "X"),
            "{workload}: no execute spans in the trace"
        );
        for e in events {
            assert!(e.get("dur").num() >= 0.0 && e.get("ts").num().is_finite());
        }
    }
}

#[test]
fn fastest_pass_sums_each_calls_fastest_time() {
    use upbench::common::FastestPass;
    let mut fastest = FastestPass::default();
    fastest.add(&[3.0, 1.0], 0.5);
    fastest.add(&[2.0, 4.0], 0.75);
    assert_eq!(fastest.host_s(), 2.0 + 1.0 + 0.5);
    // A repeat that made other calls is left out.
    fastest.add(&[0.1], 0.1);
    assert_eq!(fastest.host_s(), 3.5);
}
