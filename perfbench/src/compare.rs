//! `compare`: per-metric medians of two sets of saved runs.
//!
//! ```text
//! mrp-perfbench compare parent-1.out parent-2.out ... -- change-1.out ...
//! ```
//!
//! Each file is one run's stdout. The comparison is refused (exit code
//! 2) unless every run on both sides has the same metadata apart from
//! the code identity (`commit`, `source`) and the seed, and both sides
//! ran the same seeds.

use std::collections::BTreeMap;
use std::process::ExitCode;

use mrp_obs::Json;

use crate::meta::CODE_KEYS;
use crate::report::median;

struct Run {
    /// Metadata without the code identity and the seed.
    settings: Vec<(String, String)>,
    seed: u64,
    metrics: Vec<(String, f64, String)>,
    correct: bool,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut meta = None;
    let mut result = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let json = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if let Some(m) = json.get("meta") {
            meta = Some(m.clone());
        } else if json.get("metrics").is_some() {
            result = Some(json);
        }
    }
    let meta = meta.ok_or(format!("{path}: no metadata line"))?;
    let result = result.ok_or(format!("{path}: no result line"))?;
    let Json::Obj(fields) = &meta else {
        return Err(format!("{path}: metadata is not an object"));
    };
    let settings = fields
        .iter()
        .filter(|(k, _)| !CODE_KEYS.contains(&k.as_str()) && k != "seed")
        .map(|(k, v)| (k.clone(), v.render()))
        .collect();
    let seed = meta
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or(format!("{path}: no seed"))?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{path}: metrics is not an object"));
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    let correct = matches!(result.get("correct"), Some(Json::Bool(true)));
    Ok(Run {
        settings,
        seed,
        metrics,
        correct,
    })
}

fn refuse(why: String) -> ExitCode {
    eprintln!("compare: REFUSED: {why}");
    ExitCode::from(2)
}

pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        return refuse("usage: compare A.out... -- B.out...".to_string());
    };
    let mut sides = Vec::new();
    for paths in [&args[..split], &args[split + 1..]] {
        if paths.is_empty() {
            return refuse("each side needs at least one run".to_string());
        }
        match paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>() {
            Ok(runs) => sides.push(runs),
            Err(e) => return refuse(e),
        }
    }
    let reference = &sides[0][0].settings;
    for run in sides.iter().flatten() {
        if &run.settings != reference {
            let differing: Vec<String> = run
                .settings
                .iter()
                .zip(reference)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{}: {} vs {}", a.0, a.1, b.1))
                .collect();
            return refuse(format!("run settings differ ({})", differing.join(", ")));
        }
    }
    let seeds = |runs: &[Run]| {
        let mut s: Vec<u64> = runs.iter().map(|r| r.seed).collect();
        s.sort_unstable();
        s
    };
    if seeds(&sides[0]) != seeds(&sides[1]) {
        return refuse("the two sides ran different seeds".to_string());
    }
    if sides.iter().flatten().any(|r| !r.correct) {
        return refuse("a run reported incorrect output".to_string());
    }

    let mut table: BTreeMap<String, (String, [Vec<f64>; 2])> = BTreeMap::new();
    for (side, runs) in sides.iter().enumerate() {
        for run in runs {
            for (name, value, unit) in &run.metrics {
                let entry = table
                    .entry(name.clone())
                    .or_insert_with(|| (unit.clone(), [Vec::new(), Vec::new()]));
                entry.1[side].push(*value);
            }
        }
    }
    println!(
        "{:<40} {:>14} {:>14} {:>9} unit",
        "metric", "A median", "B median", "B/A"
    );
    for (name, (unit, [a, b])) in &table {
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let (ma, mb) = (median(a), median(b));
        println!("{name:<40} {ma:>14.4} {mb:>14.4} {:>9.4} {unit}", mb / ma);
    }
    ExitCode::SUCCESS
}
