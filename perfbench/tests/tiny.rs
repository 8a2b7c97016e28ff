//! A seconds-long pass over every workload, traced and untraced: every
//! operation must pass its checks and every declared metric must be
//! reported.

use perfbench::{per_layer_metrics, run, Options, Size, Workload, END_TO_END};

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options { seed: 7, seconds: 0.0, trace, size: Size::Tiny, digest: None };
            let out = run(workload, &opts);
            let name = workload.name();
            assert!(out.attempted > 0, "{name}: nothing attempted");
            assert_eq!(out.failed, 0, "{name} (trace {trace}): {} failed", out.failed);
            let expected: Vec<String> = if trace {
                per_layer_metrics().into_iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0.to_string()).collect()
            };
            assert_eq!(out.metrics.len(), expected.len(), "{name}: extra metrics");
            for metric in &expected {
                let v = out.metric(metric).unwrap_or_else(|| panic!("{name}: no {metric}"));
                assert!(v.is_finite(), "{name}: {metric} = {v}");
            }
            if !trace {
                for (metric, _) in END_TO_END {
                    assert!(out.metric(metric).unwrap() > 0.0, "{name}: {metric} is 0");
                }
            }
        }
    }
}
