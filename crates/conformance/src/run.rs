//! Execute the claims table and assemble the [`Report`].

use std::collections::HashMap;

use ca_bsp::Costs;

use crate::claims::{exponent_claims, ratio_claims, Operand};
use crate::fit::fit_log_log;
use crate::oracle;
use crate::report::{ClaimOut, OperandOut, OracleOut, RatioOut, Report, SweepPointOut};
use crate::sweep::{measure, model_costs, Point, Stage};

/// Run every exponent claim, ratio claim and oracle entry; `quick`
/// selects the reduced sweeps and the quick-tier ratio rows (CI tier-2
/// / smoke test). `progress` receives one line per completed check, for
/// live output.
pub fn run(quick: bool, mut progress: impl FnMut(&str)) -> Report {
    let claims = run_claims(quick, |_| true, &mut progress);
    let oracles = oracle::run_gallery(quick);
    for o in &oracles {
        progress(&format!(
            "{} oracle {:<14} n={:<3} p={:<2} c={}  resid {:.2e}  orth {:.2e}  λ-err {:.2e} (vs {})",
            if o.pass { "PASS" } else { "FAIL" },
            o.matrix,
            o.n,
            o.p,
            o.c,
            o.residual,
            o.orthogonality,
            o.eigenvalue_error,
            o.reference,
        ));
    }
    report(quick, claims.exponents, claims.ratios, oracles)
}

/// Run the exponent and ratio claims whose id `select` accepts, at the
/// tier `quick` selects, without the oracle gallery.
pub fn run_claims(
    quick: bool,
    select: impl Fn(&str) -> bool,
    mut progress: impl FnMut(&str),
) -> Report {
    // A run is a function of its stage and point, so rows that share
    // one (the gains' c = 1 sides, the ablations' two ladders) meter it
    // once.
    let mut runs: HashMap<(Stage, Point), Costs> = HashMap::new();
    let mut metered = |stage: Stage, pt: Point| {
        *runs
            .entry((stage, pt))
            .or_insert_with(|| measure(stage, pt))
    };

    let mut exponents = Vec::new();
    for claim in exponent_claims().into_iter().filter(|c| select(c.id)) {
        let points = if quick {
            &claim.quick_points
        } else {
            &claim.points
        };
        if points.is_empty() {
            continue;
        }
        let xs: Vec<f64> = points.iter().map(|pt| claim.x_of(pt)).collect();
        let mut ys = Vec::with_capacity(points.len());
        let mut model_ys = Vec::with_capacity(points.len());
        let mut points_out = Vec::with_capacity(points.len());
        for pt in points {
            let y = claim.quantity.of(&metered(claim.stage, *pt));
            let model = model_costs(claim.stage, *pt).expect("exponent claims fit modelled stages");
            model_ys.push(claim.quantity.of_model(&model));
            points_out.push(SweepPointOut {
                n: pt.n as u64,
                p: pt.p as u64,
                c: pt.c as u64,
                x: claim.x_of(pt),
                y,
            });
            ys.push(y);
        }
        let fitted = fit_log_log(&xs, &ys);
        let model_fit = fit_log_log(&xs, &model_ys);
        let pass = (fitted.slope - claim.paper).abs() <= claim.tol;
        progress(&format!(
            "{} {:<22} paper {:+.2}  measured {:+.3}  (model window {:+.3}, R²={:.4}, tol ±{:.2})",
            if pass { "PASS" } else { "FAIL" },
            claim.id,
            claim.paper,
            fitted.slope,
            model_fit.slope,
            fitted.r2,
            claim.tol,
        ));
        exponents.push(ClaimOut {
            id: claim.id.to_string(),
            stage: claim.stage.name().to_string(),
            quantity: claim.quantity.name().to_string(),
            variable: claim.variable.to_string(),
            reference: claim.reference.to_string(),
            paper_exponent: claim.paper,
            measured_exponent: fitted.slope,
            model_window_exponent: model_fit.slope,
            tolerance: claim.tol,
            r2: fitted.r2,
            note: claim.note.to_string(),
            pass,
            points: points_out,
        });
    }

    let mut ratios = Vec::new();
    for r in ratio_claims().into_iter().filter(|r| select(r.id)) {
        if quick && !r.quick {
            continue;
        }
        let mut side = |o: Operand| {
            let value = if o.model {
                let m = model_costs(o.stage, o.point).expect("a model operand has a closed form");
                r.quantity.of_model(&m)
            } else {
                r.quantity.of(&metered(o.stage, o.point))
            };
            operand_out(o, value)
        };
        let (num, den) = (side(r.num), side(r.den));
        let measured = num.value / den.value;
        let pass = measured >= r.lo && measured <= r.hi;
        progress(&format!(
            "{} {:<22} paper {}  measured ×{:.3}  (band [{:.2}, {:.2}])",
            if pass { "PASS" } else { "FAIL" },
            r.id,
            r.paper.map_or("—".to_string(), |v| format!("{v:.2}")),
            measured,
            r.lo,
            r.hi,
        ));
        ratios.push(RatioOut {
            id: r.id.to_string(),
            quantity: r.quantity.name().to_string(),
            reference: r.reference.to_string(),
            num,
            den,
            paper: r.paper,
            measured,
            lo: r.lo,
            hi: r.hi,
            note: r.note.to_string(),
            pass,
        });
    }

    report(quick, exponents, ratios, Vec::new())
}

fn report(
    quick: bool,
    exponents: Vec<ClaimOut>,
    ratios: Vec<RatioOut>,
    oracles: Vec<OracleOut>,
) -> Report {
    let passed = exponents.iter().filter(|e| e.pass).count()
        + ratios.iter().filter(|r| r.pass).count()
        + oracles.iter().filter(|o| o.pass).count();
    let total = exponents.len() + ratios.len() + oracles.len();
    Report {
        schema: "ca-symm-eig/conformance/v2".to_string(),
        quick,
        exponents,
        ratios,
        oracles,
        passed: passed as u64,
        failed: (total - passed) as u64,
        pass: total == passed,
    }
}

fn operand_out(o: Operand, value: f64) -> OperandOut {
    OperandOut {
        stage: o.stage.name().to_string(),
        n: o.point.n as u64,
        p: o.point.p as u64,
        c: o.point.c as u64,
        w: o.point.w as u64,
        model: o.model,
        value,
    }
}
