//! What every experiment is written against: the scale it runs at
//! ([`Ctx`]), what it hands back to the driver ([`Outcome`]: its report,
//! the paper's claims as values, its rows of the headline table) and the
//! runs and formats several experiments share.

use std::cell::OnceCell;
use std::fmt::{Debug, Display, Write as _};
use std::path::Path;

use pipetune::prelude::*;
use pipetune::warm_start_ground_truth;
use pipetune_tsdb::{write_atomic, TsdbError};

pub(crate) type Result<T> = std::result::Result<T, PipeTuneError>;

/// Directory experiment artefacts land in, relative to the working directory.
pub(crate) const ARTEFACTS: &str = "target/experiments";

/// The scale an experiment runs at.
pub(crate) struct Ctx {
    /// `--quick`: smoke scale instead of the harness profile.
    pub(crate) quick: bool,
    /// Figs 9 and 10 read one campaign; whichever runs first leaves it here.
    pub(crate) convergence: OnceCell<Trio>,
}

impl Ctx {
    /// Tuner options at this scale.
    pub(crate) fn options(&self) -> TunerOptions {
        if self.quick {
            return TunerOptions::fast();
        }
        // Harness profile: paper-shaped budgets but sized so the whole
        // suite completes in minutes of real training.
        TunerOptions {
            r_max: 9,
            eta: 3,
            epochs_range: (3, 9),
            scale: 0.5,
            probe_goal: pipetune::ProbeGoal::Runtime,
            threshold_factor: 3.0,
            scheduler: SchedulerKind::HyperBand,
            similarity: pipetune::SimilarityKind::KMeans { k: 2 },
        }
    }
}

/// One statement the paper makes about an experiment's numbers, and whether
/// this run's numbers bear it out.
pub(crate) struct Claim {
    pub(crate) text: String,
    pub(crate) holds: bool,
}

/// What one experiment hands back to the driver: its report (the printed
/// text and the machine-readable values), its claims and its headline rows.
#[derive(Default)]
pub(crate) struct Outcome {
    text: String,
    json: serde_json::Map<String, serde_json::Value>,
    /// Judged by the driver only after the report is written.
    pub(crate) claims: Vec<Claim>,
    /// `[claim, paper, measured]` rows this experiment adds to `summary`.
    pub(crate) headline: Vec<[String; 3]>,
}

impl Outcome {
    /// Appends a free-form line.
    pub(crate) fn line(&mut self, text: &str) {
        self.text.push_str(text);
        self.text.push('\n');
    }

    /// Appends an aligned table.
    pub(crate) fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut line = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        self.line(line.trim_end());
        let sep: String = widths.iter().map(|w| format!("{}  ", "-".repeat(*w))).collect();
        self.line(sep.trim_end());
        for row in rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            self.line(line.trim_end());
        }
    }

    /// Attaches a JSON value to the machine-readable artefact.
    pub(crate) fn json(&mut self, key: &str, value: impl serde::Serialize) -> Result<()> {
        let value = serde_json::to_value(value).map_err(|e| unserialisable(key, e))?;
        self.json.insert(key.to_string(), value);
        Ok(())
    }

    /// Records the claim `text`, which this run bears out when `holds`.
    pub(crate) fn claim(&mut self, holds: bool, text: impl Into<String>) {
        self.claims.push(Claim { text: text.into(), holds });
    }

    /// Adds a row to the headline table: what the paper reports for `claim`
    /// next to what this run measured.
    pub(crate) fn headline(&mut self, claim: &str, paper: &str, measured: String) {
        self.headline.push([claim.into(), paper.into(), measured]);
    }

    /// Prints the report under its `== name ==` heading and writes
    /// `target/experiments/<name>.{txt,json}`, each file whole or not at all.
    pub(crate) fn publish(&self, name: &str) -> Result<()> {
        let text = format!("== {name} ==\n{}", self.text);
        println!("{text}");
        let dir = Path::new(ARTEFACTS);
        std::fs::create_dir_all(dir).map_err(TsdbError::Io)?;
        write_atomic(&dir.join(format!("{name}.txt")), &text)?;
        if !self.json.is_empty() {
            let json =
                serde_json::to_string_pretty(&self.json).map_err(|e| unserialisable(name, e))?;
            write_atomic(&dir.join(format!("{name}.json")), &json)?;
        }
        Ok(())
    }
}

fn unserialisable(what: &str, e: serde_json::Error) -> PipeTuneError {
    PipeTuneError::InvalidConfig { reason: format!("{what} does not serialise: {e}") }
}

/// The error for a row, event or model an experiment looked up and did not find.
pub(crate) fn missing(what: impl Display) -> PipeTuneError {
    PipeTuneError::InvalidConfig { reason: format!("experiment found no {what}") }
}

/// The row of `rows` whose `key` (approach, variant name, …) is `want`.
pub(crate) fn named<T, K: PartialEq + Debug>(
    rows: &[T],
    key: impl Fn(&T) -> K,
    want: K,
) -> Result<&T> {
    rows.iter().find(|row| key(row) == want).ok_or_else(|| missing(format!("row {want:?}")))
}

/// PipeTune tuning `spec` from the §7.2 warm start: a ground truth
/// bootstrapped over all four Type-I/II workloads.
pub(crate) fn warm_pipetune(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    options: &TunerOptions,
) -> Result<TuningOutcome> {
    let gt = warm_start_ground_truth(env, &WorkloadSpec::all_type12(), options)?;
    PipeTune::with_ground_truth(*options, gt).run(env, spec)
}

/// The three approaches the paper compares, tuning one workload in one
/// environment: Tune V1, Tune V2, then warm-started PipeTune.
pub(crate) struct Trio {
    pub(crate) v1: TuningOutcome,
    pub(crate) v2: TuningOutcome,
    pub(crate) pt: TuningOutcome,
}

impl Trio {
    pub(crate) fn run(
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
        options: &TunerOptions,
    ) -> Result<Trio> {
        let v1 = TuneV1::new(*options).run(env, spec)?;
        let v2 = TuneV2::new(*options).run(env, spec)?;
        Ok(Trio { v1, v2, pt: warm_pipetune(env, spec, options)? })
    }

    /// The outcomes under the approach names the artefacts use.
    pub(crate) fn named(&self) -> [(&'static str, &TuningOutcome); 3] {
        [("TuneV1", &self.v1), ("TuneV2", &self.v2), ("PipeTune", &self.pt)]
    }
}

/// Percent difference of `new` relative to `base` (the paper's Fig. 3/5
/// convention: negative = improvement for durations).
pub(crate) fn pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

/// Formats seconds compactly.
pub(crate) fn secs(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2}e3 s", v / 1000.0)
    } else {
        format!("{v:.1} s")
    }
}

/// Formats joules as kJ.
pub(crate) fn kj(v: f64) -> String {
    format!("{:.2} kJ", v / 1000.0)
}

/// Formats an accuracy or score in `0..=1` as a percentage.
pub(crate) fn percent(v: f32) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_matches_paper_convention() {
        assert_eq!(pct(150.0, 100.0), 50.0);
        assert_eq!(pct(50.0, 100.0), -50.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn report_renders_aligned_tables() {
        let mut r = Outcome::default();
        r.table(&["a", "bbb"], &[vec!["1".into(), "2".into()]]);
        assert!(r.text.contains("bbb"));
        assert!(r.text.contains("---"));
    }
}
