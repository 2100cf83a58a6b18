//! The machine-readable CONFORMANCE.json model.
//!
//! Plain named-field structs only (the vendored serde shim derives
//! `Serialize` for exactly that shape); enums and generics are
//! flattened to strings/numbers before they get here.

use serde::Serialize;

/// One sweep point with the fitted x (swept variable) and y (metered
/// quantity) values.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPointOut {
    /// Matrix dimension.
    pub n: u64,
    /// Processor count.
    pub p: u64,
    /// Replication factor.
    pub c: u64,
    /// Fit x-axis value (the swept variable).
    pub x: f64,
    /// Fit y-axis value (the metered quantity).
    pub y: f64,
}

/// Outcome of one exponent claim.
#[derive(Debug, Clone, Serialize)]
pub struct ClaimOut {
    /// Stable claim id, `<stage>.<quantity>.<variable>`.
    pub id: String,
    /// Stage name.
    pub stage: String,
    /// Metered quantity (`F`/`W`/`Q`/`S`).
    pub quantity: String,
    /// Swept variable (`n`/`p`/`c`).
    pub variable: String,
    /// Paper reference for the claimed exponent.
    pub reference: String,
    /// The paper's asymptotic exponent.
    pub paper_exponent: f64,
    /// The fitted exponent of the measured sweep.
    pub measured_exponent: f64,
    /// The fitted exponent of the closed-form model over the same
    /// points (finite-size baseline; diagnostic, not asserted).
    pub model_window_exponent: f64,
    /// Documented tolerance on `|measured − paper|`.
    pub tolerance: f64,
    /// R² of the measured log-log fit.
    pub r2: f64,
    /// Tolerance rationale.
    pub note: String,
    /// Whether `|measured − paper| ≤ tolerance`.
    pub pass: bool,
    /// The sweep points behind the fit.
    pub points: Vec<SweepPointOut>,
}

/// One side of a ratio claim, with its value.
#[derive(Debug, Clone, Serialize)]
pub struct OperandOut {
    /// Stage name.
    pub stage: String,
    /// Matrix dimension.
    pub n: u64,
    /// Processor count.
    pub p: u64,
    /// Replication factor.
    pub c: u64,
    /// Second shape (band-width, panel or column count; 0 = the
    /// stage's default).
    pub w: u64,
    /// Whether the value is the closed-form model's, not a metered run.
    pub model: bool,
    /// The quantity's value.
    pub value: f64,
}

/// Outcome of one ratio claim.
#[derive(Debug, Clone, Serialize)]
pub struct RatioOut {
    /// Stable claim id.
    pub id: String,
    /// Quantity compared (`F`/`Fvol`/`W`/`Q`/`S`/`M`).
    pub quantity: String,
    /// Paper reference for the comparison.
    pub reference: String,
    /// Numerator.
    pub num: OperandOut,
    /// Denominator.
    pub den: OperandOut,
    /// The paper's predicted ratio, where it states one.
    pub paper: Option<f64>,
    /// Measured `num / den`.
    pub measured: f64,
    /// Documented lower bound.
    pub lo: f64,
    /// Documented upper bound.
    pub hi: f64,
    /// Band rationale.
    pub note: String,
    /// Whether `lo ≤ measured ≤ hi`.
    pub pass: bool,
}

/// Outcome of one numerical-oracle gallery entry.
#[derive(Debug, Clone, Serialize)]
pub struct OracleOut {
    /// Gallery matrix name.
    pub matrix: String,
    /// Matrix dimension.
    pub n: u64,
    /// Processor count of the solve.
    pub p: u64,
    /// Replication factor of the solve.
    pub c: u64,
    /// Scaled residual `‖AV − VΛ‖_max / (n‖A‖_max)`.
    pub residual: f64,
    /// Orthogonality defect `‖VᵀV − I‖_max`.
    pub orthogonality: f64,
    /// Max eigenvalue deviation vs the reference spectrum (known
    /// analytic values or Sturm bisection), scaled by `‖A‖_max`.
    pub eigenvalue_error: f64,
    /// Which reference the eigenvalues were checked against.
    pub reference: String,
    /// Shift metamorphic defect: `max|λ(A+σI) − (λ(A)+σ)|`, scaled.
    pub shift_defect: f64,
    /// Scale metamorphic defect: `max|λ(sA) − sλ(A)|`, scaled.
    pub scale_defect: f64,
    /// Orthogonal-similarity defect: `max|λ(QAQᵀ) − λ(A)|`, scaled.
    pub similarity_defect: f64,
    /// Threshold applied to every scaled defect above.
    pub tolerance: f64,
    /// Whether every defect is below `tolerance`.
    pub pass: bool,
}

/// The whole CONFORMANCE.json document.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Schema tag for downstream readers.
    pub schema: String,
    /// Whether this was a `--quick` (reduced-sweep) run.
    pub quick: bool,
    /// Exponent-claim outcomes.
    pub exponents: Vec<ClaimOut>,
    /// Ratio-claim outcomes.
    pub ratios: Vec<RatioOut>,
    /// Numerical-oracle outcomes.
    pub oracles: Vec<OracleOut>,
    /// Number of passing checks (all three sections).
    pub passed: u64,
    /// Number of failing checks.
    pub failed: u64,
    /// Overall verdict: `failed == 0`.
    pub pass: bool,
}

impl Report {
    /// Serialize to pretty-printed JSON (the vendored serde_json shim
    /// only emits compact strings; re-indent for diffability).
    pub fn to_json(&self) -> String {
        pretty(&serde_json::to_string(self).expect("report serialization"))
    }
}

/// Re-indent a compact JSON string (2 spaces, newline after `{`/`[`,
/// `,` and before `}`/`]`). String-literal aware; assumes valid JSON.
fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for ch in compact.chars() {
        if in_str {
            out.push(ch);
            if escape {
                escape = false;
            } else if ch == '\\' {
                escape = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                out.push(ch);
            }
            '{' | '[' => {
                depth += 1;
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(ch);
            }
            ',' => {
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            ':' => {
                out.push(ch);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_printer_is_string_literal_aware() {
        let compact = r#"{"a":[1,2],"s":"x{,}y"}"#;
        let p = pretty(compact);
        assert!(p.contains("\"a\": [\n"));
        // Braces and commas inside the string literal stay untouched.
        assert!(p.contains(r#""x{,}y""#));
        // Round-trip structure: depth returns to zero.
        assert!(p.trim_end().ends_with('}'));
    }
}
