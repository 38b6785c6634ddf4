//! The correctness gate: a stable hash over every dataset line a run
//! produces, compared with the values recorded in `expected.json`.

use sp2_core::Json;

/// FNV-1a, 64-bit. Each step is a bijection of the state for a fixed
/// input byte, so two inputs of equal length that differ in one byte
/// always hash differently — a single flipped byte cannot slip through.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes one line and its terminating newline.
    pub fn line(&mut self, line: &str) {
        self.update(line.as_bytes());
        self.update(b"\n");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a sequence of lines.
pub fn of_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> String {
    let mut d = Digest::default();
    for l in lines {
        d.line(l);
    }
    d.hex()
}

/// Expected digests per workload, one per input variant.
pub struct Expected(Json);

impl Expected {
    /// The digests recorded with the benchmark.
    pub fn recorded() -> Result<Expected, String> {
        let doc = Json::parse(include_str!("../expected.json"))
            .map_err(|e| format!("expected.json: {e}"))?;
        Ok(Expected(doc))
    }

    /// The recorded digest of `workload` on input `variant`.
    pub fn get(&self, workload: &str, variant: usize) -> Result<String, String> {
        self.0
            .get(workload)
            .and_then(Json::as_arr)
            .and_then(|a| a.get(variant))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("expected.json has no digest for {workload}[{variant}]"))
    }
}

/// Mean absolute relative error of a `summary` dataset's rows against
/// the paper's values.
pub fn paper_err(summary: &Json) -> Result<f64, String> {
    let rows = summary
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("summary dataset has no rows")?;
    let mut errs = Vec::with_capacity(rows.len());
    for row in rows {
        let measured = row.get("measured").and_then(Json::as_f64);
        let paper = row.get("paper").and_then(Json::as_f64);
        if let (Some(m), Some(p)) = (measured, paper) {
            errs.push(((m - p) / p).abs());
        }
    }
    if errs.len() != 6 {
        return Err(format!(
            "summary has {} paper-referenced rows, want 6",
            errs.len()
        ));
    }
    Ok(errs.iter().sum::<f64>() / errs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn a_single_flipped_byte_changes_the_digest() {
        let lines = [
            r#"{"event":"dataset","seq":0,"doc":{"rows":[1.25,2.5]}}"#.to_string(),
            r#"{"event":"dataset","seq":1,"doc":{"x":3}}"#.to_string(),
        ];
        let good = of_lines(lines.iter().map(String::as_str));
        for line in 0..lines.len() {
            for pos in 0..lines[line].len() {
                for bit in 0..8 {
                    let mut bytes = lines.clone().map(String::into_bytes);
                    bytes[line][pos] ^= 1 << bit;
                    let mut d = Digest::default();
                    for b in &bytes {
                        d.update(b);
                        d.update(b"\n");
                    }
                    assert_ne!(
                        d.hex(),
                        good,
                        "flip of bit {bit} at {line}:{pos} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn recorded_digests_cover_every_variant() {
        let e = Expected::recorded().expect("expected.json parses");
        assert!(e.get("repro_270d", 0).is_ok());
        for v in 0..crate::VARIANTS {
            assert!(e.get("campaign_faulted_270d", v).is_ok());
            assert!(e.get("serve_burst", v).is_ok());
        }
        assert!(e.get("nope", 0).is_err());
    }

    #[test]
    fn paper_err_needs_six_referenced_rows() {
        let row = |m: f64, p: f64| Json::obj().field("measured", m).field("paper", p);
        let doc = Json::obj().field("rows", Json::Arr(vec![row(1.1, 1.0); 6]));
        let err = paper_err(&doc).expect("six rows");
        assert!((err - 0.1).abs() < 1e-12);
        let short = Json::obj().field("rows", Json::Arr(vec![row(1.0, 1.0)]));
        assert!(paper_err(&short).is_err());
    }
}
