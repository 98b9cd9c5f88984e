//! The harness itself, end to end: every workload for one second — load,
//! serve, check every reply, recover from the devices, verify — in both
//! kinds of run, and the agreement between the code and `BENCHMARK.json`.

use faster_benchmark::run::{self, Report};
use faster_benchmark::spec;
use std::path::PathBuf;

const END_TO_END: [&str; 5] = ["kops", "p50_us", "p95_us", "setup_s", "rss_mb"];

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{}: metric {name} missing", r.workload))
        .value
}

fn assert_correct(r: &Report) {
    assert!(
        r.correct(),
        "{}: {} failed of {}\n{}",
        r.workload,
        r.failed,
        r.attempted,
        r.notes.join("\n")
    );
    assert!(r
        .json_line()
        .starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for s in &spec::ALL {
        let r = run::run_untraced(s, 0x5EED, 1.0);
        assert_correct(&r);
        assert_eq!(
            r.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
            END_TO_END
        );
        for name in END_TO_END {
            assert!(
                value(&r, name) > 0.0,
                "{}: {name} must never read 0",
                s.name
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_well_formed_spans() {
    let benchmark_json = benchmark_json();
    let per_layer = section(&benchmark_json, "\"per_layer\"", "\u{0}");
    for s in &spec::ALL {
        let path =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace.{}.jsonl", s.name));
        let r = run::run_traced(s, 0x5EED, 1.0, &path);
        assert_correct(&r);

        assert_eq!(
            r.metrics.len(),
            per_layer.matches("\"name\":").count(),
            "{}",
            s.name
        );
        for m in &r.metrics {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", m.name, m.unit);
            assert!(
                per_layer.contains(&entry),
                "BENCHMARK.json per_layer lacks {entry}"
            );
            assert!(m.value.is_finite(), "{}: {} = {}", s.name, m.name, m.value);
        }

        // Sizing: the mem_* datasets sit in the mutable region, cold_b does not.
        if s.name.starts_with("mem_") {
            assert_eq!(value(&r, "hlog.in_place_ratio"), 1.0, "{}", s.name);
            assert_eq!(value(&r, "hlog.pending_ratio"), 0.0, "{}", s.name);
        } else {
            assert!(value(&r, "hlog.pending_ratio") > 0.5, "{}", s.name);
            assert!(
                value(&r, "storage.device_reads_per_get") > 0.5,
                "{}",
                s.name
            );
        }

        // Span file: one object per line, every span but a window has a
        // parent, and ids are the line numbers parents refer to.
        let text = std::fs::read_to_string(&path).expect("span file written");
        let mut names = std::collections::BTreeSet::new();
        for (i, line) in text.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{},\"parent\":", i + 1)),
                "{line}"
            );
            let is_root = line.contains("\"parent\":null,");
            assert_eq!(is_root, line.contains("\"name\":\"window\""), "{line}");
            names.insert(
                line.split("\"name\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string(),
            );
        }
        let expected = [
            "client.await",
            "client.send",
            "core.execute_batch",
            "storage.await",
            "wal.await",
            "window",
        ];
        assert_eq!(
            names.iter().map(String::as_str).collect::<Vec<_>>(),
            expected,
            "{}",
            s.name
        );
    }
}

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the root of the repository")
}

/// The text of `json` from `from` up to `to` (or the end).
fn section<'a>(json: &'a str, from: &str, to: &str) -> &'a str {
    let tail = &json[json
        .find(from)
        .unwrap_or_else(|| panic!("{from} in BENCHMARK.json"))..];
    &tail[..tail.find(to).unwrap_or(tail.len())]
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_the_code_has() {
    let json = benchmark_json();
    let workloads = section(&json, "\"workloads\"", "\"end_to_end\"");
    assert_eq!(workloads.matches("\"name\":").count(), spec::ALL.len());
    for s in &spec::ALL {
        assert!(
            s.why.len() <= 200 && !s.why.contains('\n'),
            "{}: why is one line of at most 200 chars",
            s.name
        );
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why);
        assert!(
            workloads.contains(&entry),
            "BENCHMARK.json workloads lacks {entry}"
        );
    }
    let end_to_end = section(&json, "\"end_to_end\"", "\"per_layer\"");
    assert_eq!(end_to_end.matches("\"name\":").count(), END_TO_END.len());
    for name in END_TO_END {
        assert!(
            end_to_end.contains(&format!("{{\"name\": \"{name}\",")),
            "end_to_end lacks {name}"
        );
    }
}
