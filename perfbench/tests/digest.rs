//! A wrong recorded digest of the simulated statistics must fail the run's
//! operations, not pass silently.

use perfbench::{digest, run, Options, Size, Workload};

#[test]
fn a_corrupted_recorded_digest_counts_as_failures() {
    for (workload, recorded) in [
        (Workload::FigSweep, digest::FIG_SWEEP_TINY),
        (Workload::DbxlStream, digest::DBXL_STREAM_TINY),
    ] {
        let opts = Options {
            seed: 3,
            seconds: 0.0,
            trace: false,
            size: Size::Tiny,
            digest: Some(recorded ^ 1),
        };
        let out = run(workload, &opts);
        assert!(out.failed > 0, "{}: corrupted digest passed", workload.name());
        assert!(out.failed <= out.attempted);
        assert!(out.result_line().contains("\"correct\":false"));
    }
}
