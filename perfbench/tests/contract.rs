//! `BENCHMARK.json` at the repository root declares exactly the metrics
//! the benchmark reports, with the same units.

use ap_apd::json::{parse, Value};
use perfbench::{per_layer_metrics, END_TO_END};

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    let per_layer: Vec<(String, String)> =
        per_layer_metrics().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(declared(&doc, "per_layer"), per_layer);
}
