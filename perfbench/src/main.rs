//! The pardict benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grep-logs|ingest-dna|serve-mixed|cluster-rw|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- spread RESULT...
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs the traced layer suite on the same inputs and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The metric names, units and directions are read from `BENCHMARK.json`,
//! and a run that cannot produce every declared metric fails. `spread`
//! reads result files (one run's output each) and prints each metric's
//! median and quartile spread against its bound.

mod json;
mod layers;
mod spans;
mod stats;
mod workloads;

use json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
struct MetricSpec {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself uses.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn metric_list(v: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: missing {key}"))?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {key} entry without {k}"))
            };
            Ok(MetricSpec {
                name: s("name")?,
                unit: s("unit")?,
                better: s("better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let v = json::parse(text)?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: missing workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| "BENCHMARK.json: workload without name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metric_list(&v, "end_to_end")?,
        per_layer: metric_list(&v, "per_layer")?,
    })
}

/// Load `BENCHMARK.json` and check it declares what this program runs.
fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    let spec = parse_spec(&text)?;
    let layer: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if spec.workloads != workloads::WORKLOADS || layer != layers::LAYER_METRICS {
        return Err(
            "BENCHMARK.json workloads or per_layer metrics differ from the program's".into(),
        );
    }
    Ok(spec)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit under test, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".into(),
            |s| s.trim().to_string(),
        )
}

/// End-to-end metrics of an untraced run, plus its run-record lines.
fn end_to_end(
    o: &workloads::Outcome,
) -> Result<(BTreeMap<&'static str, f64>, Vec<String>), String> {
    let mut m = BTreeMap::new();
    let mut notes = Vec::new();
    let setup = stats::median(&o.setup_s).ok_or("no set-up measured")?;
    let p50 = stats::median(&o.lat_ms).ok_or("no op completed in the timed phase")?;
    let tail = stats::tail(&o.lat_ms).ok_or("no op completed")?;
    m.insert("setup_s", setup);
    m.insert("ops_s", o.lat_ms.len() as f64 / o.elapsed_s);
    m.insert("mb_s", o.bytes as f64 / f64::from(1 << 20) / o.elapsed_s);
    m.insert("latency_p50_ms", p50);
    m.insert("latency_tail_ms", tail.value);
    if o.comp.1 > 0 {
        m.insert("compressed_pct", 100.0 * o.comp.0 as f64 / o.comp.1 as f64);
    }
    let reps: Vec<String> = o.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    notes.push(format!(
        "setup_s: median of {} set-ups [{}]",
        o.setup_s.len(),
        reps.join(", ")
    ));
    notes.push(format!(
        "latency: {} samples over {:.3} s; p50 {p50:.4} ms; latency_tail_ms is {} = {:.4} ms with {} samples beyond",
        o.lat_ms.len(),
        o.elapsed_s,
        stats::pct_label(tail.pct),
        tail.value,
        tail.beyond
    ));
    if !o.writes.is_empty() {
        let lat: Vec<f64> = o.writes.iter().map(|w| w.latency_ms).collect();
        let late: Vec<f64> = o.writes.iter().map(|w| w.late_ms).collect();
        let wt = stats::tail(&lat).ok_or("no write")?;
        notes.push(format!(
            "writes: {} samples; write_p50_ms {:.4}; write_tail_ms {} = {:.4} with {} beyond; writer lateness median {:.4} ms, max {:.4} ms",
            lat.len(),
            stats::median(&lat).unwrap_or(0.0),
            stats::pct_label(wt.pct),
            wt.value,
            wt.beyond,
            stats::median(&late).unwrap_or(0.0),
            late.iter().copied().fold(0.0, f64::max)
        ));
    }
    notes.push(format!(
        "failed_pct: {:.4} ({} of {} ops)",
        stats::failed_pct(o.failed, o.attempted),
        o.failed,
        o.attempted
    ));
    notes.extend(o.notes.iter().cloned());
    Ok((m, notes))
}

/// Metrics in declared order with declared units; errors on any declared
/// metric the run did not produce.
fn declared(
    specs: &[MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Result<(Value, Vec<String>), String> {
    let mut obj = Vec::new();
    let mut lines = Vec::new();
    for s in specs {
        let v = *values
            .get(s.name.as_str())
            .ok_or(format!("metric {} was not measured", s.name))?;
        lines.push(format!(
            "metric {} = {v:.6} {} ({} is better)",
            s.name, s.unit, s.better
        ));
        obj.push((
            s.name.clone(),
            Value::Obj(vec![
                ("value".into(), Value::Num(v)),
                ("unit".into(), Value::Str(s.unit.clone())),
            ]),
        ));
    }
    Ok((Value::Obj(obj), lines))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
    .to_json()
}

/// `--workload all` runs every declared workload in turn, each printing
/// its own record and JSON line; the exit code fails if any run failed.
fn run_all(args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    if args.workload != "all" {
        return run(args, spec);
    }
    let mut code = ExitCode::SUCCESS;
    for w in &spec.workloads {
        let one = Args {
            workload: w.clone(),
            ..*args
        };
        if run(&one, spec)? != ExitCode::SUCCESS {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn run(args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    if !spec.workloads.contains(&args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        commit()
    );
    if args.trace {
        let t = layers::run(&args.workload, args.seed)?;
        for line in &t.notes {
            println!("{line}");
        }
        print_span_summary(t.rec.spans());
        write_spans(&args.workload, args.seed, t.rec.spans());
        let (metrics, lines) = declared(&spec.per_layer, &t.metrics)?;
        for l in lines {
            println!("{l}");
        }
        let n = t.rec.spans().len() as u64;
        println!("{}", result_line(true, n, 0, metrics));
        return Ok(ExitCode::SUCCESS);
    }
    let o = workloads::run(&args.workload, args.seed, args.seconds)?;
    let (values, notes) = end_to_end(&o)?;
    for l in notes {
        println!("{l}");
    }
    let (metrics, lines) = declared(&spec.end_to_end, &values)?;
    for l in lines {
        println!("{l}");
    }
    for w in &o.wrong {
        eprintln!(
            "check failed: workload={} seed={} {w}",
            args.workload, args.seed
        );
    }
    let correct = o.wrong.is_empty();
    println!("{}", result_line(correct, o.attempted, o.failed, metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Per span name: calls, total and self milliseconds, summed ledger work.
fn print_span_summary(spans: &[spans::Span]) {
    let selfs = spans::self_times(spans);
    let mut by: BTreeMap<&str, (usize, f64, f64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += own as f64 / 1e6;
        e.3 += s.cost.map_or(0, |c| c.work);
    }
    println!("spans: name calls total_ms self_ms work");
    for (name, (n, total, own, work)) in by {
        println!("span {name} {n} {total:.3} {own:.3} {work}");
    }
}

/// Write the span dump under `perfbench/out/` in the checkout.
fn write_spans(workload: &str, seed: u64, spans: &[spans::Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{workload}-{seed}.tsv");
    let res =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans::to_tsv(spans)));
    match res {
        Ok(()) => println!("spans written to perfbench/out/spans-{workload}-{seed}.tsv"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// `spread FILE...`: each file holds one run's output; report every
/// metric's median, quartiles and spread against its bound.
fn spread(files: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or(format!("{f}: empty"))?;
        let v = json::parse(last).map_err(|e| format!("{f}: {e}"))?;
        let Some(Value::Obj(ms)) = v.get("metrics") else {
            return Err(format!("{f}: no metrics"));
        };
        for (k, m) in ms {
            let x = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{f}: {k} has no value"))?;
            values.entry(k.clone()).or_default().push(x);
        }
    }
    let bounds: BTreeMap<&str, f64> = spec
        .end_to_end
        .iter()
        .filter_map(|s| s.bound.map(|b| (s.name.as_str(), b)))
        .collect();
    let mut over = false;
    println!("metric n median q1 q3 spread bound ok");
    for (k, xs) in &values {
        let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
        let med = stats::median(xs).unwrap_or(f64::NAN);
        let sp = stats::relative_spread(xs).unwrap_or(f64::NAN);
        let (bound, ok) = match bounds.get(k.as_str()) {
            Some(&b) if k != "setup_s" => (format!("{b}"), sp <= b / 3.0),
            Some(&b) => (format!("{b}"), true),
            None => ("-".into(), true),
        };
        over |= !ok;
        println!(
            "{k} {} {med:.6} {q1:.6} {q3:.6} {sp:.4} {bound} {}",
            xs.len(),
            if ok { "ok" } else { "WIDE" }
        );
    }
    Ok(if over {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = load_spec().and_then(|spec| {
        if argv.first().map(String::as_str) == Some("spread") {
            spread(&argv[1..], &spec)
        } else {
            run_all(&parse_args(&argv)?, &spec)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` parses, keeps the keys and limits the
    /// benchmark contract sets, survives a serialize/parse round trip, and
    /// declares exactly the workloads and metrics this program produces.
    #[test]
    fn benchmark_json_round_trips_and_matches_the_program() {
        let text = std::fs::read_to_string(SPEC_PATH).unwrap();
        let v = json::parse(&text).unwrap();
        assert_eq!(json::parse(&v.to_json()).unwrap(), v);
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() <= 64 << 10);
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };

        let spec = load_spec().unwrap();
        for w in v.get("workloads").unwrap().as_arr().unwrap() {
            let Value::Obj(kv) = w else { panic!() };
            assert_eq!(kv.len(), 2);
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let mut seen = std::collections::HashSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                name_ok(&m.name) && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(unit_ok(&m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let max_bound = spec
            .end_to_end
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max_bound));
        for m in &spec.per_layer {
            assert_eq!(m.bound, None);
        }
        let run_seconds = v.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    }

    #[test]
    fn end_to_end_metrics_cover_the_declared_list() {
        let spec = load_spec().unwrap();
        let o = workloads::Outcome {
            setup_s: vec![0.5, 0.4, 0.6],
            lat_ms: (1..=50).map(f64::from).collect(),
            elapsed_s: 2.0,
            bytes: 4 << 20,
            attempted: 51,
            failed: 1,
            comp: (30, 100),
            ..Default::default()
        };
        let (values, notes) = end_to_end(&o).unwrap();
        assert_eq!(values["setup_s"], 0.5);
        assert_eq!(values["ops_s"], 25.0);
        assert_eq!(values["mb_s"], 2.0);
        assert_eq!(values["latency_p50_ms"], 25.5);
        // 50 samples: p75 has 12 beyond, p90 only 5.
        assert_eq!(values["latency_tail_ms"], 38.0);
        assert_eq!(values["compressed_pct"], 30.0);
        assert!(notes
            .iter()
            .any(|l| l.contains("failed_pct: 1.9608 (1 of 51 ops)")));
        let (obj, _) = declared(&spec.end_to_end, &values).unwrap();
        let line = result_line(false, 51, 1, obj);
        let back = json::parse(&line).unwrap();
        assert_eq!(back.get("failed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(back.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload grep-logs --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
        assert!(parse_args(&a("--workload grep-logs --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&a("--workload grep-logs --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload grep-logs --seed 7 --trace 0")).is_err());
    }
}
