//! `perf compare A B`: is result set B a regression against A?
//!
//! Each end-to-end metric has a bound (relative share of A's median, with
//! an absolute floor where a relative change of a tiny number is noise);
//! B regresses when its median is worse than A's by more than the bound.
//! Where either side's own run-to-run spread is wider than the bound — or a
//! side was measured on a degraded host — the pair is `unresolved`, not
//! `ok`, unless every run of B beats every run of A.
//!
//! Two sets compare only when they ran the same inputs on the same build:
//! the same workloads, seeds, frozen sizes and dependency graph. Anything
//! else is refused, not judged.

use std::collections::BTreeMap;

use crate::metrics::{median, percentile, Better, Clock, EndToEnd, END_TO_END};
use crate::results::ResultFile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// How much worse B's median may be than A's, in the metric's unit.
    pub allowed: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed ÷ attempted share rose from A to B.
    pub failure_rate_rose: Vec<String>,
    /// `workload metric a b` for exact (virtual-clock) per-layer metrics
    /// that differ: same seed, same sizes, so the program changed them.
    pub exact_changed: Vec<String>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.failure_rate_rose.is_empty()
            || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }
}

struct Side {
    values: Vec<f64>,
    degraded: bool,
}

fn side(runs: &[&ResultFile], metric: &str) -> Side {
    let found: Vec<_> = runs
        .iter()
        .filter_map(|r| r.end_to_end.iter().find(|m| m.name == metric))
        .collect();
    Side {
        values: found.iter().map(|m| m.value).collect(),
        degraded: found.iter().any(|m| m.degraded),
    }
}

/// Inter-quartile distance; zero for fewer than four runs (one run has no
/// spread to speak of, and the bound alone decides).
fn iqr(values: &[f64]) -> f64 {
    if values.len() < 4 {
        0.0
    } else {
        percentile(values, 75.0) - percentile(values, 25.0)
    }
}

fn judge(def: &EndToEnd, a: &Side, b: &Side) -> (f64, Verdict) {
    if a.values.is_empty() || b.values.is_empty() {
        return (0.0, Verdict::Unresolved);
    }
    let (ma, mb) = (median(&a.values), median(&b.values));
    let allowed = (def.rel_bound * ma.abs()).max(def.abs_floor);
    let worse_by = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let b_always_better = match def.better {
        Better::Lower => percentile(&b.values, 100.0) < percentile(&a.values, 0.0),
        Better::Higher => percentile(&b.values, 0.0) > percentile(&a.values, 100.0),
    };
    let noisy = iqr(&a.values) > allowed || iqr(&b.values) > allowed;
    let verdict = if (a.degraded || b.degraded || noisy) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (allowed, verdict)
}

fn by_workload(set: &[ResultFile]) -> BTreeMap<&str, Vec<&ResultFile>> {
    let mut map: BTreeMap<&str, Vec<&ResultFile>> = BTreeMap::new();
    for r in set {
        map.entry(r.workload.as_str()).or_default().push(r);
    }
    map
}

fn failure_rate(runs: &[&ResultFile]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.ops_attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.ops_failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Why `a` and `b` cannot be compared, if they cannot.
fn comparable(
    a: &BTreeMap<&str, Vec<&ResultFile>>,
    b: &BTreeMap<&str, Vec<&ResultFile>>,
) -> Result<(), String> {
    if !a.keys().eq(b.keys()) {
        return Err(format!(
            "workloads differ: {:?} vs {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    let first = a.values().next().and_then(|runs| runs.first());
    let Some(first) = first else {
        return Err("empty result set".to_string());
    };
    for (w, ra) in a {
        let rb = &b[w];
        let seeds = |runs: &[&ResultFile]| {
            let mut s: Vec<u64> = runs.iter().map(|r| r.seed).collect();
            s.sort_unstable();
            s
        };
        if seeds(ra) != seeds(rb) {
            return Err(format!("{w}: seeds {:?} vs {:?}", seeds(ra), seeds(rb)));
        }
        for r in ra.iter().chain(rb) {
            if r.sizing != first.sizing {
                return Err(format!("{w}: frozen sizes differ between runs"));
            }
            if r.deps != first.deps {
                return Err(format!(
                    "{w}: built against {:?} and {:?} dependencies",
                    first.deps, r.deps
                ));
            }
        }
    }
    Ok(())
}

pub fn compare(a: &[ResultFile], b: &[ResultFile]) -> Result<Comparison, String> {
    let (a, b) = (by_workload(a), by_workload(b));
    comparable(&a, &b)?;
    let mut out = Comparison::default();
    for (w, ra) in &a {
        let rb = &b[w];
        for def in &END_TO_END {
            let (sa, sb) = (side(ra, def.name), side(rb, def.name));
            // Off this workload's path on both sides: no row.
            if sa.values.is_empty() && sb.values.is_empty() {
                continue;
            }
            let (allowed, verdict) = judge(def, &sa, &sb);
            out.rows.push(Row {
                workload: w.to_string(),
                metric: def.name.to_string(),
                a: (!sa.values.is_empty()).then(|| median(&sa.values)),
                b: (!sb.values.is_empty()).then(|| median(&sb.values)),
                allowed,
                verdict,
            });
        }
        if failure_rate(rb) > failure_rate(ra) {
            out.failure_rate_rose.push(w.to_string());
        }
        for ma in ra[0].per_layer.iter().filter(|m| m.clock == Clock::Virtual) {
            let vb = rb[0].per_layer.iter().find(|m| m.name == ma.name);
            if let Some(mb) = vb.filter(|mb| mb.value.to_bits() != ma.value.to_bits()) {
                out.exact_changed
                    .push(format!("{w} {} {} {}", ma.name, ma.value, mb.value));
            }
        }
    }
    Ok(out)
}

pub fn render(c: &Comparison) -> String {
    let mut out = String::new();
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    for r in &c.rows {
        out += &format!(
            "{:<13} {:<12} a={:<12} b={:<12} allowed={:<10.4} {}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            r.allowed,
            r.verdict.label()
        );
    }
    for w in &c.failure_rate_rose {
        out += &format!("{w}: ops_failed / ops_attempted rose — regressed\n");
    }
    for line in &c.exact_changed {
        out += &format!("changed (exact metric): {line}\n");
    }
    out
}
