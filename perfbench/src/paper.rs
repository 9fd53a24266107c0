//! `paper-design`: the reproduction flow — characterize BSC/LPC/HPS at
//! L=32, regenerate Figs. 7, 8a, 8b and 9, then run the checked-in DSE
//! sweep.  The seed is the characterization stimulus seed.

use std::time::Instant;

use bsc_bench::experiments::{
    fig7_csv, fig7_sweep, fig8a, fig8a_csv, fig8b, fig8b_csv, fig9, fig9_csv, BenchmarkEfficiency,
    FIG9_PAPER,
};
use bsc_bench::{dse, Workbench};
use bsc_mac::ppa::{characterize_runs, CharacterizeConfig};
use bsc_mac::MacKind;
use bsc_telemetry::SpanCollector;

use crate::stats::{fig9_ratio_error_pct, Digest};
use crate::trace::{self_s, span, total_s};
use crate::workload::{diff_clean, ensure, Pass, Workload};

const DSE_MANIFEST: &str = include_str!("../../examples/dse_manifest.json");
const DSE_BASELINE: &str = include_str!("../../BENCH_dse_baseline.json");

/// The stimulus seed of the checked-in characterization configuration.
pub fn default_seed() -> u64 {
    CharacterizeConfig::default().seed
}

/// The `paper-design` workload.
pub struct PaperDesign {
    seed: u64,
    workers: usize,
    config: Option<CharacterizeConfig>,
}

impl PaperDesign {
    /// The workload at stimulus seed `seed`, running the DSE on
    /// `workers` threads.
    pub fn new(seed: u64, workers: usize) -> Self {
        PaperDesign {
            seed,
            workers,
            config: None,
        }
    }
}

impl Workload for PaperDesign {
    fn work_per_s_name(&self) -> &'static str {
        "dse_points_per_s"
    }

    /// Parsing only: this workload characterizes inside every pass.
    fn setup(&mut self) -> Result<(), String> {
        let manifest = dse::parse_dse_manifest(DSE_MANIFEST)?;
        dse::workload_layers(&manifest.workload)?;
        self.config = Some(CharacterizeConfig {
            seed: self.seed,
            ..CharacterizeConfig::default()
        });
        Ok(())
    }

    fn pass(&mut self, t: Option<&SpanCollector>) -> Result<Pass, String> {
        let config = self
            .config
            .clone()
            .ok_or("paper-design: pass before setup")?;
        let runs_before = characterize_runs();
        let wb = span(t, "mac.characterize", || Workbench::with_config(config))
            .map_err(|e| format!("characterization: {e}"))?;
        let sweep = span(t, "synth.fig7", || fig7_sweep(&wb));
        let max_eff = span(t, "synth.fig8a", || fig8a(&wb)).map_err(|e| format!("fig8a: {e}"))?;
        let array_eff = span(t, "synth.fig8b", || fig8b(&wb)).map_err(|e| format!("fig8b: {e}"))?;
        let bench_eff = span(t, "synth.fig9", || fig9(&wb)).map_err(|e| format!("fig9: {e}"))?;
        let dse_started = Instant::now();
        let run = span(t, "dse", || dse::dse(DSE_MANIFEST, Some(self.workers)))?;
        let dse_s = dse_started.elapsed().as_secs_f64();
        let designs = characterize_runs() - runs_before;

        let dse_json = dse::to_json(&run);
        let ratio_error = fig9_ratio_error_pct(&bench_eff);
        let mut digest = Digest::default();
        for doc in [
            fig7_csv(&sweep),
            fig8a_csv(&max_eff),
            fig8b_csv(&array_eff),
            fig9_csv(&bench_eff),
            dse_json.clone(),
        ] {
            digest.update(doc.as_bytes());
        }
        let pareto = run.pareto_count();
        let check = check_fig9(&bench_eff)
            .and_then(|()| {
                ensure!(
                    1 < pareto && pareto < run.points.len(),
                    "dse: expected 1 < front < points, got front {pareto} of {}",
                    run.points.len()
                );
                ensure!(
                    ratio_error.is_some(),
                    "fig9: a network or design is missing"
                );
                Ok(())
            })
            .and_then(|()| diff_clean("BENCH_dse_baseline.json", DSE_BASELINE, &dse_json));
        let ratio_error = ratio_error.unwrap_or(0.0);
        let notes = vec![
            format!(
                "stimulus seed {}: {} designs characterized, {} Fig 7 points, DSE {} points / {} on the front",
                self.seed,
                designs,
                sweep.len(),
                run.points.len(),
                pareto
            ),
            format!("fig9_ratio_error_pct = {ratio_error:.4} pct (BSC/LPC and BSC/HPS vs the paper)"),
        ];

        let mut layers = Vec::new();
        if let Some(t) = t {
            let snap = t.snapshot();
            let phase_s =
                |name: &str| run.profile.phase(name).map_or(0, |p| p.wall_ns) as f64 / 1e9;
            let counter = |phase: &str, name: &str| {
                run.profile.phase(phase).map_or(0, |p| p.counter(name)) as f64
            };
            let ppa = ["synth.fig7", "synth.fig8a", "synth.fig8b"].map(|s| total_s(&snap, s));
            layers = vec![
                ("mac.characterize_s", total_s(&snap, "mac.characterize")),
                ("mac.designs_characterized", designs as f64),
                ("synth.fig7_s", ppa[0]),
                ("synth.fig8a_s", ppa[1]),
                ("synth.fig8b_s", ppa[2]),
                ("synth.ppa_sweep_s", ppa.iter().sum()),
                (
                    "synth.ppa_points",
                    (sweep.len() + max_eff.len() + array_eff.len()) as f64,
                ),
                ("synth.fig9_s", total_s(&snap, "synth.fig9")),
                ("synth.fig9_ratio_error_pct", ratio_error),
                ("dse.call_s", total_s(&snap, "dse")),
                (
                    "dse.self_s",
                    self_s(&snap, "dse", run.profile.total_wall_ns()),
                ),
                ("dse.enumerate_s", phase_s("enumerate")),
                ("dse.evaluate_s", phase_s("evaluate")),
                ("dse.pareto_s", phase_s("pareto")),
                ("dse.export_s", phase_s("export")),
                (
                    "dse.layer_schedules",
                    counter("evaluate", "layer_schedules"),
                ),
                ("dse.points", counter("evaluate", "points_evaluated")),
                ("dse.pareto_points", counter("pareto", "front_points")),
            ];
        }
        Ok(Pass {
            work: run.points.len() as f64,
            work_s: Some(dse_s),
            digest,
            check,
            layers,
            notes,
        })
    }
}

/// BSC must beat LPC and HPS on every Fig. 9 network.
fn check_fig9(rows: &[BenchmarkEfficiency]) -> Result<(), String> {
    for &(net, ..) in &FIG9_PAPER {
        let eff = |kind: MacKind| {
            rows.iter()
                .find(|r| r.network == net && r.kind == kind)
                .map(|r| r.tops_per_w)
                .ok_or_else(|| format!("fig9: no {kind} row for {net}"))
        };
        let (bsc, lpc, hps) = (eff(MacKind::Bsc)?, eff(MacKind::Lpc)?, eff(MacKind::Hps)?);
        ensure!(
            bsc > lpc && bsc > hps,
            "fig9: BSC {bsc:.3} TOPS/W does not beat LPC {lpc:.3} and HPS {hps:.3} on {net}"
        );
    }
    Ok(())
}
