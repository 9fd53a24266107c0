//! Engine-vs-serial conformance: the batch inference engine must produce
//! **bit-identical** per-layer numerics to a plain serial
//! [`Accelerator::run_network`] call, for every MAC architecture, every
//! precision policy and any worker count.  Scheduling runs on a serial
//! virtual clock and the per-job evaluation is pure f64 math, so exact
//! `==` on [`LayerReport`] (which derives `PartialEq` over its floats) is
//! the right comparison — any drift is a determinism bug, not noise.

use std::sync::Arc;

use bsc_accel::{
    Accelerator, Engine, EngineConfig, InferenceJob, JobOutcome, PrecisionPolicy,
};
use bsc_mac::{MacKind, Precision};
use bsc_nn::{models, SharedNetwork};

/// The job mix every backend runs: the NAS-assigned mixed precisions plus
/// all three uniform modes.
fn policies() -> [PrecisionPolicy; 4] {
    [
        PrecisionPolicy::AsTrained,
        PrecisionPolicy::Uniform(Precision::Int2),
        PrecisionPolicy::Uniform(Precision::Int4),
        PrecisionPolicy::Uniform(Precision::Int8),
    ]
}

#[test]
fn engine_matches_serial_run_network_at_any_worker_count() {
    let net: SharedNetwork = models::lenet5().into_shared();
    // The same network behind a second allocation: equal content, but a
    // different handle, so the engine evaluates it separately.
    let copy: SharedNetwork = models::lenet5().into_shared();
    for kind in MacKind::ALL {
        // Serial reference: one accelerator (through the shared cache),
        // one run_network call per policy-applied network.
        let accel = Accelerator::quick_cached(kind).expect("characterize");
        let serial: Vec<_> = policies()
            .iter()
            .map(|policy| {
                let applied = policy.apply(&net);
                accel.run_network(&applied).expect("serial run")
            })
            .collect();

        for workers in [1, 2, 8] {
            let mut engine =
                Engine::new(EngineConfig::quick(kind).with_workers(workers)).expect("engine");
            // Every policy twice, then the copy once: five distinct
            // (handle, policy) keys over nine jobs.
            let mut jobs: Vec<_> = [policies(), policies()]
                .concat()
                .into_iter()
                .enumerate()
                .map(|(i, policy)| {
                    InferenceJob::new(format!("{kind}-{policy}-{i}"), Arc::clone(&net))
                        .with_policy(policy)
                })
                .collect();
            jobs.push(InferenceJob::new(format!("{kind}-copy"), Arc::clone(&copy)));
            let batch = engine.run_jobs(jobs).expect("batch");
            assert_eq!(batch.completed_count(), 9, "{kind} workers={workers}");
            let references = serial.iter().cycle().take(8).chain(&serial[..1]);
            for (i, (reference, job)) in references.zip(batch.completed()).enumerate() {
                // Bit-identical per-layer numerics: cycles, MACs,
                // utilization, energy, TOPS/W.
                assert_eq!(
                    reference.layers(),
                    job.report.layers(),
                    "{kind} workers={workers} job={}",
                    job.name
                );
                assert_eq!(reference.total_cycles(), job.cycles());
                // Repeats reuse the first round's evaluation; the copy
                // has its own.
                let first = if i < 8 { i % 4 } else { i };
                assert_eq!(job.evaluation, batch.completed().nth(first).unwrap().name);
            }
            let spans = engine.telemetry().spans.snapshot();
            let evaluations =
                spans.spans.iter().filter(|s| s.name.starts_with("engine.job.")).count();
            assert_eq!(evaluations, 5, "{kind} workers={workers}: one span per distinct key");
        }
    }
}

#[test]
fn mixed_precision_batch_completes_under_bounded_queue() {
    // 64 jobs of mixed precision through a quick BSC engine whose queue
    // holds them all: every job must end completed, and the bound must
    // hold at the high-water mark.
    let net: SharedNetwork = models::lenet5().into_shared();
    let mut engine = Engine::new(
        EngineConfig::quick(MacKind::Bsc).with_queue_capacity(64).with_workers(4),
    )
    .expect("engine");
    let jobs: Vec<_> = (0..64)
        .map(|i| {
            let policy = policies()[i % 4];
            InferenceJob::new(format!("job{i:02}-{policy}"), Arc::clone(&net))
                .with_policy(policy)
        })
        .collect();
    let batch = engine.run_jobs(jobs).expect("batch");

    assert_eq!(batch.submitted(), 64);
    assert!(batch.peak_queue_depth <= 64, "queue bound exceeded");
    // Every job has exactly one terminal state, and with capacity for the
    // whole batch and no deadlines they all complete.
    assert_eq!(batch.completed_count(), 64);
    assert_eq!(batch.rejected_count() + batch.shed_count(), 0);
    for outcome in batch.outcomes() {
        assert!(matches!(outcome, JobOutcome::Completed(_)), "{}", outcome.name());
    }
    // Submission-order merging: job names come back in the order they
    // went in, and queue waits accumulate monotonically.
    let completed: Vec<_> = batch.completed().collect();
    for (i, job) in completed.iter().enumerate() {
        assert!(job.name.starts_with(&format!("job{i:02}")), "{}", job.name);
    }
    for pair in completed.windows(2) {
        assert_eq!(pair[1].queue_wait_cycles, pair[0].completion_cycle);
    }
}
