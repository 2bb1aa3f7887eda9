//! `BENCHMARK.json` and the code must say the same thing, and the
//! benchmark must not pin what ROADMAP slates for deletion.

use std::path::Path;

use dordis_benchmark::workloads::{per_layer, END_TO_END, WORKLOADS};
use serde::{obj_get, Value};

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json")
}

fn list<'a>(manifest: &'a Value, key: &str) -> &'a [Value] {
    match obj_get(manifest.as_object().expect("object"), key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match obj_get(entry.as_object().expect("object"), key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn manifest_matches_the_code() {
    let manifest = manifest();
    let workloads: Vec<&str> = list(&manifest, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let declared = list(&manifest, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (entry, metric) in declared.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(entry, "better"), better, "{}", metric.name);
        let bound = obj_get(entry.as_object().unwrap(), "bound").and_then(Value::as_f64);
        assert_eq!(bound, Some(metric.bound), "{}", metric.name);
    }

    let layers: Vec<(&str, &str)> = list(&manifest, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(layers, per_layer());
}

#[test]
fn nothing_slated_for_deletion_is_named() {
    // Spelled in pieces so this file passes its own check.
    let banned = [
        ["Collect", "Mode"].concat(),
        ["Coordinator", "Config"].concat(),
        ["Session", "Config"].concat(),
        ["run_", "coordinator"].concat(),
        [".collect_", "masked("].concat(),
        [".collect_", "unmasking("].concat(),
        ["dordis_", "compute"].concat(),
        ["dordis-", "compute"].concat(),
        ["--", "collect"].concat(),
        ["--", "workers"].concat(),
        ["--", "shards"].concat(),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("Cargo.toml")];
    for dir in ["src", "tests"] {
        for entry in std::fs::read_dir(root.join(dir)).expect(dir) {
            files.push(entry.expect("entry").path());
        }
    }
    for file in files {
        let source = std::fs::read_to_string(&file).expect("source");
        for word in &banned {
            assert!(
                !source.contains(word.as_str()),
                "{} names `{word}`",
                file.display()
            );
        }
    }
}
