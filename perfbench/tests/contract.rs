//! The benchmark's own tests: tiny runs of every workload honour the
//! metric contract of `BENCHMARK.json`, a traced solve's layers account for
//! its wall time, and counts from deterministic configurations repeat.

use chordal_perfbench::report::{END_TO_END, PER_LAYER};
use chordal_perfbench::{run, Options, Report, Size, Workload};
use chordal_serve::JsonValue;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
    })
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(json: &JsonValue, key: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Arr(items)) = json.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|item| {
            let field = |k: &str| {
                item.get(k)
                    .and_then(JsonValue::as_str)
                    .expect(k)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let json = benchmark_json();
    let listed = |key| names_and_units(&json, key);
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let Some(JsonValue::Arr(workloads)) = json.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, 7, trace);
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.failures
            );
            let line = JsonValue::parse(&report.result_line(trace)).expect("result line parses");
            assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in table {
                let metric = line.path(&["metrics", name]);
                let metric = metric.unwrap_or_else(|| panic!("{} lacks {name}", workload.name()));
                assert_eq!(metric.get("unit").and_then(JsonValue::as_str), Some(*unit));
                assert!(metric.get("value").is_some(), "{name}");
            }
            if !trace {
                assert!(
                    report.missing_end_to_end().is_empty(),
                    "{}",
                    workload.name()
                );
                for (name, _) in END_TO_END {
                    let value = report.metrics[name];
                    assert!(value > 0.0, "{}: {name} = {value}", workload.name());
                }
            }
            let record = JsonValue::parse(&report.record_line()).expect("record line parses");
            for key in [
                "workload",
                "seed",
                "host_cpus",
                "pool_threads",
                "git_rev",
                "input_vertices",
                "input_edges",
                "input_bytes",
            ] {
                assert!(
                    record.get(key).is_some(),
                    "{}: record lacks {key}",
                    workload.name()
                );
            }
        }
    }
}

/// Same-run phase-sum invariant: in a traced solve, the self times of the
/// layer spans cover at least 95% of the solve's wall time — a ratio,
/// never an absolute time.
#[test]
fn traced_solve_layers_account_for_its_wall_time() {
    for workload in [Workload::SolveSkewed, Workload::SolveUniformText] {
        let report = tiny(workload, 3, true);
        let ratio = report.metrics["trace.phase_sum_ratio"];
        assert!(
            (0.95..=1.0).contains(&ratio),
            "{}: phase sum ratio {ratio}",
            workload.name()
        );
    }
}

#[test]
fn deterministic_counts_repeat_for_the_same_seed() {
    let keys: [(Workload, &[&str]); 2] = [
        (Workload::BatchMixed, &["output.edges", "alg1.iterations"]),
        (
            Workload::SolveUniformText,
            &[
                "baseline.dearing_edges",
                "baseline.alg1_serial_edges",
                "baseline.alg1_serial_iterations",
            ],
        ),
    ];
    for (workload, names) in keys {
        let first = tiny(workload, 11, true);
        let second = tiny(workload, 11, true);
        for name in names {
            assert!(first.metrics[name] > 0.0, "{}: {name}", workload.name());
            assert_eq!(
                first.metrics[name],
                second.metrics[name],
                "{}: {name}",
                workload.name()
            );
        }
        // The input sizes sit in the provenance record.
        let input_edges = |r: &Report| {
            r.record
                .iter()
                .find(|(key, _)| *key == "input_edges")
                .map(|(_, value)| value.clone())
        };
        assert!(input_edges(&first).is_some(), "{}", workload.name());
        assert_eq!(input_edges(&first), input_edges(&second));
        let batch_frac = |r: &Report| r.metrics["chordal_frac"];
        if workload == Workload::BatchMixed {
            assert_eq!(batch_frac(&first), batch_frac(&second));
        }
    }
}
