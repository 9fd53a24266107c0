//! What every workload provides to the measuring loop in `main.rs`, and
//! the checks they share.

use bsc_bench::diff::{diff_documents, DiffOptions};
use bsc_telemetry::SpanCollector;

use crate::stats::Digest;

/// Returns `Err(format!(..))` from the enclosing function unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($fmt)+));
        }
    }};
}
pub(crate) use ensure;

/// One export writer: its span, the per-layer metrics of its time and
/// of its document's size, and the writer itself.
pub type Writer<R> = (&'static str, &'static str, &'static str, fn(&R) -> String);

/// The outcome of one pass over a workload.
#[derive(Debug)]
pub struct Pass {
    /// Units of work done, the numerator of `work_per_s`.
    pub work: f64,
    /// Seconds the work rate is taken over when that is one call of the
    /// pass rather than the whole pass.
    pub work_s: Option<f64>,
    /// Digest of the pass's deterministic outputs: equal on every pass
    /// of a run, traced or not.
    pub digest: Digest,
    /// The output checks; `Err` names the first that failed.
    pub check: Result<(), String>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
    /// What the inputs and outputs looked like, for the log.
    pub notes: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// What one unit of `work_per_s` is, named as a rate
    /// (`arrivals_per_s`, `jobs_per_s`, `dse_points_per_s`).
    fn work_per_s_name(&self) -> &'static str;

    /// One set-up round: parse the inputs and characterize every design
    /// the passes need into a fresh cache.  Timed as `setup_s`.
    fn setup(&mut self) -> Result<(), String>;

    /// Fills the process-wide characterization cache the passes reuse
    /// (untimed; a no-op when the passes characterize themselves).
    fn warm(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One pass.  With a tracer, every call runs inside a span, the
    /// program's own profilers are attached and `Pass::layers` is
    /// filled; without one, the same calls run bare.
    fn pass(&mut self, tracer: Option<&SpanCollector>) -> Result<Pass, String>;
}

/// `current` must match the checked-in `baseline` document at `--tol 0`
/// (wall-clock fields exempt, as in `repro diff`).
pub fn diff_clean(label: &str, baseline: &str, current: &str) -> Result<(), String> {
    let opts = DiffOptions {
        tolerance: 0.0,
        ..DiffOptions::default()
    };
    let report = diff_documents(baseline, current, &opts).map_err(|e| format!("{label}: {e}"))?;
    let (regressed, missing) = (report.regressions().len(), report.missing().len());
    ensure!(
        regressed == 0 && missing == 0,
        "{label}: {regressed} fields drifted and {missing} are missing at --tol 0"
    );
    Ok(())
}
