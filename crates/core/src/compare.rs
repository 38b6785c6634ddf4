//! Dataset-by-dataset comparison of two campaign runs — the engine
//! behind `sp2 compare`.
//!
//! Inputs are ordered lists of labeled dataset documents (from an
//! archive's replayed NDJSON stream or a stored `.ndjson` file). The
//! two runs are paired positionally, every numeric leaf is diffed with
//! per-metric relative/absolute tolerances, and any structural
//! difference — missing datasets, mismatched keys, arrays of different
//! length, a string where a number was — is a shape mismatch, because
//! no tolerance can make it comparable.
//!
//! The exit-code contract (the reason this module exists — CI gates on
//! it):
//!
//! | code | meaning |
//! |---|---|
//! | 0 | bit-identical |
//! | 3 | differences exist, all within tolerance |
//! | 4 | at least one metric exceeded tolerance |
//! | 5 | shape mismatch |

use crate::archive;
use crate::error::Sp2Error;
use crate::json::Json;
use std::path::Path;

/// Per-metric tolerances. A differing metric is acceptable when its
/// absolute difference is `<= abs` *or* its relative difference is
/// `<= rel` (relative to the larger magnitude).
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative tolerance.
    pub rel: f64,
    /// Absolute tolerance.
    pub abs: f64,
}

impl Default for Tolerance {
    /// Tight defaults for a determinism gate: one part in 10⁹
    /// relative, no absolute allowance.
    fn default() -> Self {
        Tolerance {
            rel: 1e-9,
            abs: 0.0,
        }
    }
}

/// Overall (or per-dataset) verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompareOutcome {
    /// Every compared value is bit-identical.
    Identical,
    /// Numeric differences exist, all within tolerance.
    WithinTolerance,
    /// At least one metric exceeded tolerance.
    Exceeded,
    /// The two runs are not structurally comparable.
    ShapeMismatch,
}

impl CompareOutcome {
    /// The process exit code `sp2 compare` reports.
    pub fn exit_code(self) -> u8 {
        match self {
            CompareOutcome::Identical => 0,
            CompareOutcome::WithinTolerance => 3,
            CompareOutcome::Exceeded => 4,
            CompareOutcome::ShapeMismatch => 5,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CompareOutcome::Identical => "identical",
            CompareOutcome::WithinTolerance => "within tolerance",
            CompareOutcome::Exceeded => "exceeded",
            CompareOutcome::ShapeMismatch => "shape mismatch",
        }
    }
}

/// How many shape-mismatch notes a single dataset keeps (the first few
/// localize the problem; thousands restate it).
const MAX_NOTES: usize = 8;

/// The diff of one positional dataset pair.
#[derive(Debug, Clone)]
pub struct DatasetDiff {
    /// Dataset label (experiment id when available, else the index).
    pub label: String,
    /// Numeric leaves compared.
    pub metrics: usize,
    /// Leaves whose bit patterns differed.
    pub differing: usize,
    /// Largest absolute difference seen.
    pub max_abs: f64,
    /// Largest relative difference seen.
    pub max_rel: f64,
    /// Path of the worst (largest relative difference) metric.
    pub worst: Option<String>,
    /// Structural mismatch descriptions, capped at [`MAX_NOTES`].
    pub notes: Vec<String>,
    /// This dataset's verdict.
    pub outcome: CompareOutcome,
}

/// The full comparison: one row per dataset pair plus the overall
/// verdict (the worst per-dataset one).
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Tolerances the comparison ran with.
    pub tolerance: Tolerance,
    /// Per-dataset diffs, in input order.
    pub datasets: Vec<DatasetDiff>,
    /// Worst verdict across all datasets.
    pub outcome: CompareOutcome,
}

struct DiffStats<'t> {
    tol: &'t Tolerance,
    metrics: usize,
    differing: usize,
    max_abs: f64,
    max_rel: f64,
    worst: Option<String>,
    notes: Vec<String>,
    exceeded: bool,
}

impl DiffStats<'_> {
    fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    fn num(&mut self, path: &str, a: f64, b: f64) {
        self.metrics += 1;
        if a.to_bits() == b.to_bits() {
            return;
        }
        self.differing += 1;
        let abs = (a - b).abs();
        let rel = abs / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        if abs > self.max_abs {
            self.max_abs = abs;
        }
        if rel > self.max_rel {
            self.max_rel = rel;
            self.worst = Some(path.to_string());
        }
        if !(abs <= self.tol.abs || rel <= self.tol.rel) {
            self.exceeded = true;
        }
    }

    fn walk(&mut self, path: &str, a: &Json, b: &Json) {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => self.num(path, *x, *y),
            (Json::Null, Json::Null) => {}
            (Json::Bool(x), Json::Bool(y)) => {
                if x != y {
                    self.note(format!("{path}: {x} vs {y}"));
                }
            }
            (Json::Str(x), Json::Str(y)) => {
                if x != y {
                    self.note(format!("{path}: strings differ"));
                }
            }
            (Json::Arr(xs), Json::Arr(ys)) => {
                if xs.len() != ys.len() {
                    self.note(format!("{path}: {} vs {} elements", xs.len(), ys.len()));
                    return;
                }
                for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                    self.walk(&format!("{path}[{i}]"), x, y);
                }
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                if xs.len() != ys.len() || xs.iter().zip(ys).any(|((ka, _), (kb, _))| ka != kb) {
                    self.note(format!("{path}: object keys differ"));
                    return;
                }
                for ((k, x), (_, y)) in xs.iter().zip(ys) {
                    self.walk(&format!("{path}.{k}"), x, y);
                }
            }
            _ => self.note(format!("{path}: value kinds differ")),
        }
    }
}

/// Compares two runs dataset by dataset. Pairs are positional; a label
/// disagreement (the runs archived different experiments, or in a
/// different order) is a shape mismatch, as is a differing dataset
/// count.
pub fn compare_datasets(
    a: &[(String, Json)],
    b: &[(String, Json)],
    tolerance: Tolerance,
) -> CompareReport {
    let mut datasets = Vec::new();
    for (i, ((la, da), (lb, db))) in a.iter().zip(b).enumerate() {
        let mut stats = DiffStats {
            tol: &tolerance,
            metrics: 0,
            differing: 0,
            max_abs: 0.0,
            max_rel: 0.0,
            worst: None,
            notes: Vec::new(),
            exceeded: false,
        };
        if la != lb {
            stats.note(format!("dataset {i}: labels differ ({la:?} vs {lb:?})"));
        } else {
            stats.walk("doc", da, db);
        }
        let outcome = if !stats.notes.is_empty() {
            CompareOutcome::ShapeMismatch
        } else if stats.exceeded {
            CompareOutcome::Exceeded
        } else if stats.differing > 0 {
            CompareOutcome::WithinTolerance
        } else {
            CompareOutcome::Identical
        };
        datasets.push(DatasetDiff {
            label: la.clone(),
            metrics: stats.metrics,
            differing: stats.differing,
            max_abs: stats.max_abs,
            max_rel: stats.max_rel,
            worst: stats.worst,
            notes: stats.notes,
            outcome,
        });
    }
    if a.len() != b.len() {
        datasets.push(DatasetDiff {
            label: "(count)".to_string(),
            metrics: 0,
            differing: 0,
            max_abs: 0.0,
            max_rel: 0.0,
            worst: None,
            notes: vec![format!("{} vs {} datasets", a.len(), b.len())],
            outcome: CompareOutcome::ShapeMismatch,
        });
    }
    let outcome = datasets
        .iter()
        .map(|d| d.outcome)
        .max()
        .unwrap_or(CompareOutcome::Identical);
    CompareReport {
        tolerance,
        datasets,
        outcome,
    }
}

impl CompareReport {
    /// The human-readable table (one row per dataset) plus verdict.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .datasets
            .iter()
            .map(|d| d.label.len())
            .max()
            .unwrap_or(7)
            .max(7);
        out.push_str(&format!(
            "{:width$}  {:>7}  {:>9}  {:>12}  {:>12}  outcome\n",
            "dataset", "metrics", "differing", "max abs", "max rel"
        ));
        for d in &self.datasets {
            out.push_str(&format!(
                "{:width$}  {:>7}  {:>9}  {:>12.5e}  {:>12.5e}  {}\n",
                d.label,
                d.metrics,
                d.differing,
                d.max_abs,
                d.max_rel,
                d.outcome.label()
            ));
            if let (Some(worst), true) = (&d.worst, d.differing > 0) {
                out.push_str(&format!("{:width$}  worst: {worst}\n", ""));
            }
            for note in &d.notes {
                out.push_str(&format!("{:width$}  note: {note}\n", ""));
            }
        }
        out.push_str(&format!(
            "verdict: {} (rel tol {:e}, abs tol {:e}) -> exit {}\n",
            self.outcome.label(),
            self.tolerance.rel,
            self.tolerance.abs,
            self.outcome.exit_code()
        ));
        out
    }

    /// Machine-readable form (`sp2 compare --json`).
    pub fn to_json(&self) -> Json {
        let datasets: Vec<Json> = self
            .datasets
            .iter()
            .map(|d| {
                Json::obj()
                    .field("label", d.label.as_str())
                    .field("metrics", d.metrics as u64)
                    .field("differing", d.differing as u64)
                    .field("max_abs", d.max_abs)
                    .field("max_rel", d.max_rel)
                    .field(
                        "worst",
                        d.worst.as_deref().map(Json::from).unwrap_or(Json::Null),
                    )
                    .field(
                        "notes",
                        Json::Arr(d.notes.iter().map(|n| Json::from(n.as_str())).collect()),
                    )
                    .field("outcome", d.outcome.label())
            })
            .collect();
        Json::obj()
            .field("schema", "sp2-compare/v1")
            .field(
                "tolerance",
                Json::obj()
                    .field("rel", self.tolerance.rel)
                    .field("abs", self.tolerance.abs),
            )
            .field("outcome", self.outcome.label())
            .field("exit_code", u64::from(self.outcome.exit_code()))
            .field("datasets", Json::Arr(datasets))
    }
}

/// Reads one `compare` input into labeled dataset documents: an
/// sp2-archive container's dataset lines, or an NDJSON stream (dataset
/// events picked out; side-channel events skipped; plain JSON-per-line
/// files compare whole lines). A line that is not valid JSON is a typed
/// [`Sp2Error::Protocol`].
pub fn load_input(path: &Path) -> Result<Vec<(String, Json)>, Sp2Error> {
    let lines: Vec<String> = if archive::file_is_archive(path) {
        archive::load_archive(path)?.dataset_lines
    } else {
        std::fs::read_to_string(path)?
            .lines()
            .map(str::to_string)
            .collect()
    };
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = Json::parse(line)
            .map_err(|e| Sp2Error::Protocol(format!("{} line {}: {e}", path.display(), i + 1)))?;
        match doc.get("event").and_then(Json::as_str) {
            Some("dataset") | None => {}
            Some(_) => continue, // metrics/timeline side channel
        }
        let label = doc
            .get("experiment")
            .and_then(Json::as_str)
            .map_or_else(|| format!("line {}", i + 1), str::to_string);
        // Compare the dataset body, not the stream envelope: the `job`
        // digest covers the seed, so leaving it in would turn every
        // different-seed comparison into a string (shape) mismatch
        // instead of a measured numeric difference.
        let body = doc.get("doc").cloned().unwrap_or(doc);
        out.push((label, body));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(mflops: f64) -> Json {
        Json::obj()
            .field("experiment", "table2")
            .field("rows", Json::Arr(vec![Json::obj().field("mflops", mflops)]))
    }

    fn labeled(j: Json) -> (String, Json) {
        ("table2".to_string(), j)
    }

    #[test]
    fn identical_runs_exit_zero() {
        let a = vec![labeled(doc(88.878))];
        let r = compare_datasets(&a, &a, Tolerance::default());
        assert_eq!(r.outcome, CompareOutcome::Identical);
        assert_eq!(r.outcome.exit_code(), 0);
        assert_eq!(r.datasets[0].metrics, 1);
        assert_eq!(r.datasets[0].differing, 0);
    }

    #[test]
    fn tiny_differences_are_within_tolerance() {
        let a = vec![labeled(doc(88.878))];
        let b = vec![labeled(doc(88.878 * (1.0 + 1e-12)))];
        let r = compare_datasets(&a, &b, Tolerance::default());
        assert_eq!(r.outcome, CompareOutcome::WithinTolerance);
        assert_eq!(r.outcome.exit_code(), 3);
    }

    #[test]
    fn large_differences_exceed() {
        let a = vec![labeled(doc(88.878))];
        let b = vec![labeled(doc(90.0))];
        let r = compare_datasets(&a, &b, Tolerance::default());
        assert_eq!(r.outcome, CompareOutcome::Exceeded);
        assert_eq!(r.outcome.exit_code(), 4);
        assert_eq!(r.datasets[0].worst.as_deref(), Some("doc.rows[0].mflops"));
    }

    #[test]
    fn absolute_tolerance_admits_small_shifts() {
        let a = vec![labeled(doc(1e-12))];
        let b = vec![labeled(doc(2e-12))];
        // Relative difference is 50%, but the absolute shift is tiny.
        let r = compare_datasets(
            &a,
            &b,
            Tolerance {
                rel: 1e-9,
                abs: 1e-9,
            },
        );
        assert_eq!(r.outcome, CompareOutcome::WithinTolerance);
    }

    #[test]
    fn shape_mismatches_win() {
        let a = vec![labeled(doc(1.0))];
        let b = vec![labeled(Json::obj().field("experiment", "table2"))];
        let r = compare_datasets(&a, &b, Tolerance::default());
        assert_eq!(r.outcome, CompareOutcome::ShapeMismatch);
        assert_eq!(r.outcome.exit_code(), 5);

        let b = vec![("table3".to_string(), doc(1.0))];
        let r = compare_datasets(&a, &b, Tolerance::default());
        assert_eq!(r.outcome, CompareOutcome::ShapeMismatch);

        let r = compare_datasets(&a, &[], Tolerance::default());
        assert_eq!(r.outcome, CompareOutcome::ShapeMismatch);
    }

    #[test]
    fn report_renders_table_and_json() {
        let a = vec![labeled(doc(88.878))];
        let b = vec![labeled(doc(90.0))];
        let r = compare_datasets(&a, &b, Tolerance::default());
        let table = r.render_table();
        assert!(table.contains("table2"), "{table}");
        assert!(table.contains("exceeded"), "{table}");
        assert!(table.contains("exit 4"), "{table}");
        let json = r.to_json().to_string_compact();
        assert!(json.contains("\"sp2-compare/v1\""), "{json}");
        assert!(json.contains("\"exit_code\":4"), "{json}");
    }

    #[test]
    fn deeply_nested_input_line_is_a_typed_error() {
        let path =
            std::env::temp_dir().join(format!("sp2-compare-nested-{}.ndjson", std::process::id()));
        let hostile = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let text = format!("{}\n{hostile}\n", doc(1.0).to_string_compact());
        std::fs::write(&path, text).expect("writes input");
        let err = load_input(&path).expect_err("nesting is rejected, not recursed");
        let _ = std::fs::remove_file(&path);
        match err {
            Sp2Error::Protocol(msg) => {
                assert!(msg.contains("line 2") && msg.contains("nesting"), "{msg}")
            }
            other => panic!("expected a protocol error, got {other}"),
        }
    }
}
